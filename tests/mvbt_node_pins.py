"""MVBT identity pins: the exact trees ``RDFTX.load`` and live updates build
on three fixed datasets.

``python tests/mvbt_node_pins.py`` prints the pins as JSON;
``tests/golden/mvbt_node_pins.json`` holds that output and
``tests/test_mvbt_routing.py`` re-runs this script under ``PYTHONHASHSEED=0``
and compares — the write path may get faster, no node may move.  A pin is the
SHA-256 of an index's ``dump_state()`` (the whole node table: regions,
lifetimes, links, entries or packed buffers; node uids are never part of it)
plus its ``sizeof()``, taken after ``load`` and again after 500 mixed inserts
and deletes; ``logical`` is the same hash over a decompressed copy of the
tree, i.e. with the leaf representation factored out; ``visible`` hashes
that copy's root registry and node table with every entry clamped to its
node's lifetime, the way every scan reads it — a copy's raw start factored
out too.  The synthetic generators iterate string sets, so the pins only
hold for the recorded string-hash algorithm.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.datasets import govtrack, wikipedia
from repro.engine import RDFTX
from repro.io import load_graph
from repro.model.time import NOW
from repro.mvbt import MVBT

GOLDEN_DATASET = Path(__file__).parent / "golden" / "cluster_fig9.tnq"
UPDATES = 500

#: Which commit each pin in the golden file was generated at.
PROVENANCE = (
    "visible: generated at the parent of the commit that starts "
    "version-split copies at the split, and unchanged by it.  sha256, "
    "sizeof and logical (load and updates): re-issued by that commit; a "
    "copy's start is now the split version, a zero delta in its packed "
    "leaf, so raw starts and packed bytes moved while no node, region, "
    "lifetime, link or clamped entry did."
)


def _sha256(tree: MVBT) -> str:
    state = json.dumps(tree.dump_state(), sort_keys=True, default=bytes.hex)
    return hashlib.sha256(state.encode()).hexdigest()


def _visible(plain: MVBT) -> str:
    """SHA-256 of what readers see of a decompressed tree: the root
    registry, and every node's kind, region, lifetime and links with its
    entries clamped to that lifetime."""
    state = plain.dump_state()
    nodes = []
    for node in state["nodes"]:
        lo, hi = node["start"], node["death"]
        nodes.append({
            **node,
            "entries": [
                (key, max(start, lo), min(end, hi), link)
                for key, start, end, link in node["entries"]
            ],
        })
    visible = {"root_starts": state["root_starts"], "roots": state["roots"],
               "nodes": nodes}
    return hashlib.sha256(
        json.dumps(visible, sort_keys=True).encode()
    ).hexdigest()


def _index_pins(engine: RDFTX) -> dict:
    pins = {}
    for name, tree in engine.indexes.items():
        plain = MVBT.load_state(tree.dump_state())
        plain.decompress()
        pins[name] = {
            "sha256": _sha256(tree),
            "sizeof": tree.sizeof(),
            "logical": _sha256(plain),
            "visible": _visible(plain),
        }
    return pins


def _apply_updates(engine: RDFTX, graph) -> None:
    """500 seeded updates at rising chronons: ends of live facts, new values
    for existing (subject, predicate) pairs, and facts on fresh subjects."""
    rng = random.Random(12)
    live = [graph.decode(t) for t in graph if t.period.end == NOW]
    rng.shuffle(live)
    time = engine.horizon
    for serial in range(UPDATES):
        time += rng.randrange(3)
        if live and rng.random() < 0.45:
            fact = live.pop()
            engine.delete(fact.subject, fact.predicate, fact.object, time)
        elif live and rng.random() < 0.5:
            fact = rng.choice(live)
            engine.insert(fact.subject, fact.predicate, f"pin_{serial}", time)
        else:
            engine.insert(f"Pin_{serial}", f"pin_p{serial % 5}",
                          f"pin_{serial % 17}", time)


def _pins(graph) -> dict:
    engine = RDFTX.from_graph(graph)
    loaded = _index_pins(engine)
    _apply_updates(engine, graph)
    engine.check_invariants()
    return {"load": loaded, "updates": _index_pins(engine)}


def compute() -> dict:
    return {
        "hash_algorithm": sys.hash_info.algorithm,
        "provenance": PROVENANCE,
        "fig9_golden": _pins(load_graph(GOLDEN_DATASET)),
        "wikipedia_4000_seed7": _pins(wikipedia.generate(4000, seed=7).graph),
        "govtrack_4000_seed7": _pins(govtrack.generate(4000, seed=7).graph),
    }


if __name__ == "__main__":
    json.dump(compute(), sys.stdout, indent=1)
    sys.stdout.write("\n")
