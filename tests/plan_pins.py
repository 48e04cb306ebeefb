"""Plan-output pins: what ``RDFTX.explain`` and ``query(profile=True)`` print
for a fixed fig9-style query set.

``python tests/plan_pins.py`` prints the pins as JSON;
``tests/golden/plan_pins.json`` holds that output from the commit before the
plan cache held compiled plans, and ``tests/test_plan_cache.py`` re-runs this
script under ``PYTHONHASHSEED=0`` and compares — the plan form may change,
what a user reads off it may not.  Per engine (with and without the
optimizer) and per query: the ``explain`` text of a cold compile, then the
profile of the same text as a plan-cache hit, with wall times dropped.  A
text that cannot compile pins its exception type instead.

Re-issued by the commit that makes a canonical decimal integer its own term
id, which renumbers the terms and so the keys and the statistics: 7 of the
46 ``explain`` texts moved, six in their estimates only and one, an
``est=0`` tie, in the order of its two POS scans; in the profiles only
estimates, q-errors, that swap and one scan's leaf counts moved
(``{?s ?p Country_0 ?t}``: 8 leaves, 502 entries -> 5, 313), no row count.

Re-issued by the commit that makes the engine's default tree shape
``MVBTConfig(64, 8, 16)`` in place of ``(64, 12, 12)``: other splits make
other leaves, so 172 of the profiles' per-scan counts (``leaves``,
``entries``, ``pruned``, ``decoded``) moved, and nothing else: no
``explain`` text, estimate, q-error or row count.
"""

import json
import sys
from pathlib import Path

from repro import RDFTX, Optimizer
from repro.datasets.queries import complex_queries, join_queries, selection_queries
from repro.engine import UnknownTermError
from repro.io import load_graph

GOLDEN_DATASET = Path(__file__).parent / "golden" / "cluster_fig9.tnq"

#: Shapes the generated mix lacks: a synchronized join (with and without a
#: filter after it), two time variables, a cross product, a repeated
#: variable, a constant object, two FILTER clauses, UNION and OPTIONAL,
#: and a term the dictionary does not know.
EXTRA = [
    "SELECT ?s ?a ?b ?t {?s population ?a ?t . ?s mayor ?b ?t}",
    "SELECT ?s ?a {?s population ?a ?t . ?s mayor ?b ?t . "
    "FILTER(LENGTH(?t) > 100)}",
    "SELECT ?s {?s population ?a ?t1 . ?s mayor ?b ?t2 . "
    "FILTER(YEAR(?t1) = 2010)}",
    "SELECT ?a ?b {City_2 mayor ?a ?t1 . Country_0 gdp ?b ?t2}",
    "SELECT ?x {?x population ?x ?t}",
    "SELECT ?s ?p {?s ?p Country_0 ?t}",
    "SELECT ?o {City_2 mayor ?o ?t . FILTER(YEAR(?t) >= 2005) "
    "FILTER(LENGTH(?t) > 30)}",
    "SELECT ?s ?v { {?s mayor ?v ?t} UNION {?s leader ?v ?t} }",
    "SELECT ?s ?a ?m {?s population ?a ?t . OPTIONAL {?s mayor ?m ?t}}",
    "SELECT ?o {Nobody mayor ?o ?t}",
]


def query_set(graph) -> list[str]:
    by_count = complex_queries(graph, seed=3)
    return (selection_queries(graph, 4, seed=1)
            + join_queries(graph, 4, seed=2)
            + by_count[3][:2] + by_count[4][:2] + by_count[5][:1]
            + EXTRA)


def _untimed(node: dict) -> dict:
    node.pop("time_ms", None)
    for child in node.get("children", ()):
        _untimed(child)
    return node


def _pins(engine: RDFTX, texts: list[str]) -> dict:
    pins = {}
    for text in texts:
        try:
            explained = engine.explain(text)
        except UnknownTermError as exc:
            explained = f"raises {type(exc).__name__}"
        profile = engine.query(text, profile=True).profile
        pins[text] = {
            "explain": explained,
            "profile": None if profile is None else {
                "max_qerror": profile.max_qerror(),
                "plan": _untimed(profile.root.to_dict()),
            },
        }
    return pins


def compute() -> dict:
    graph = load_graph(GOLDEN_DATASET)
    texts = query_set(graph)
    return {
        "hash_algorithm": sys.hash_info.algorithm,
        "optimizer": _pins(RDFTX.from_graph(graph, optimizer=Optimizer()),
                           texts),
        "heuristic": _pins(RDFTX.from_graph(graph), texts),
    }


if __name__ == "__main__":
    json.dump(compute(), sys.stdout, indent=1)
    sys.stdout.write("\n")
