"""Histogram identity pins: what ``TemporalHistogram().build`` chooses and
estimates on three fixed datasets.

``python tests/histogram_pins.py`` prints the pins as JSON;
``tests/golden/histogram_pins.json`` holds that output from the commit before
the statistics build was made near-linear (PR 12), and
``tests/test_optimizer.py`` re-runs this script under ``PYTHONHASHSEED=0`` and
compares — the build may get faster, the histogram may not move.  The
synthetic generators iterate string sets, so the pins only hold for the
recorded string-hash algorithm.

The ``estimates`` of ``fig9_golden`` and ``wikipedia_4000_seed7`` were
re-issued by the commit that makes a canonical decimal integer its own term
id: their predicate ids renumber when numbers leave the dictionary's table
(largest predicate id 170 -> 89), and the samples draw predicates by id.
``cm``, ``lm``, ``core_sizeof`` and ``sizeof`` did not move on any dataset,
nor did anything of ``govtrack_4000_seed7``.
"""

import json
import random
import sys
from pathlib import Path

from repro.datasets import govtrack, wikipedia
from repro.io import load_graph
from repro.model.time import NOW
from repro.mvsbt.histogram import TemporalHistogram

GOLDEN_DATASET = Path(__file__).parent / "golden" / "cluster_fig9.tnq"
SAMPLES = 200


def _pins(graph) -> dict:
    histogram = TemporalHistogram()
    histogram.build(graph)
    starts = [t.period.start for t in graph]
    low, high = min(starts), max(starts) + 1
    predicates = sorted(histogram.charsets.with_predicate)
    rng = random.Random(12)
    estimates = []
    for i in range(SAMPLES):
        t1 = rng.randint(low, high)
        t2 = rng.choice((NOW, t1 + 1, rng.randint(t1 + 1, high + 1)))
        charset = rng.randrange(len(histogram.charsets))
        predicate = rng.choice(predicates)
        estimates.append((
            histogram.subjects_alive(charset, t1, t2),
            histogram.occurrences(charset, predicate, t1, t2),
            histogram.predicate_occurrences(predicate, t1, t2),
            histogram.triples_alive(t1, t2),
        )[i % 4])
    return {
        "cm": histogram.cm,
        "lm": histogram.lm,
        "core_sizeof": histogram.core_sizeof(),
        "sizeof": histogram.sizeof(),
        "estimates": estimates,
    }


def compute() -> dict:
    return {
        "hash_algorithm": sys.hash_info.algorithm,
        "fig9_golden": _pins(load_graph(GOLDEN_DATASET)),
        "wikipedia_4000_seed7": _pins(wikipedia.generate(4000, seed=7).graph),
        "govtrack_4000_seed7": _pins(govtrack.generate(4000, seed=7).graph),
    }


if __name__ == "__main__":
    json.dump(compute(), sys.stdout, indent=1)
    sys.stdout.write("\n")
