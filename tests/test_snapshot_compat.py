"""Snapshots written before version-split copies started at the split.

``tests/golden/old_snapshot_{packed,plain}.snap`` were written by
:func:`write_fixtures` at the commit before that change: every copy a
version split made in them keeps its entry's raw start.  The rows each one
holds sit beside it in ``old_snapshot_rows.json``.  Today's trees restore
from those files unchanged (no snapshot version bump), so their history,
their live starts, their query answers and the updates applied on top of
them must all still agree with the rows.

They were also written while the engine kept a fourth tree, SOP.  A
restore reads only today's three orders and drops it; the next save
writes none.

``python tests/test_snapshot_compat.py`` rewrites the fixtures with the
code it runs under; done today, that would write start-at-the-split copies
and no longer test older files.
"""

import json
import pickle
import random
import sys
from pathlib import Path

import pytest

from repro.engine import RDFTX
from repro.model import NOW, TemporalGraph
from repro.service.snapshot import (SNAPSHOT_MAGIC, load_snapshot,
                                    save_snapshot)
from tests.test_history import ReferenceHistory, assert_matches, decoded_rows
from tests.test_mvbt_compression import SMALL

GOLDEN = Path(__file__).parent / "golden"
ROWS = GOLDEN / "old_snapshot_rows.json"
MODES = ("packed", "plain")

QUERIES = [
    "SELECT ?s ?o {?s p1 ?o ?t}",
    "SELECT ?p ?o ?t {s3 ?p ?o ?t}",
    "SELECT ?s ?t {?s p0 o5 ?t}",
    "SELECT ?s ?a ?b {?s p0 ?a ?t1 . ?s p2 ?b ?t2}",
    "SELECT ?s ?o ?t {?s p3 ?o ?t}",
    "SELECT ?p ?t {s3 ?p o3 ?t}",
    "SELECT ?s ?p {?s ?p o3 ?t . s3 ?p o3 ?u}",
]

#: The key orders an engine restores, and the one the fixtures also hold.
ORDERS = {"spo", "pos", "ops"}


def snapshot_path(mode):
    return GOLDEN / f"old_snapshot_{mode}.snap"


def build_engine(packed):
    """The fixture history: 96 loaded facts, then 150 seeded updates at
    rising chronons (several per chronon) on capacity-8 trees, so leaves
    version split under both the load and the updates."""
    graph = TemporalGraph()
    for i in range(96):
        start = 1 + (i * 7) % 50
        end = NOW if i % 3 else start + 5 + i % 40
        graph.add(f"s{i % 24}", f"p{i % 5}", f"o{i % 13}", start, end)
    engine = RDFTX(config=SMALL)
    engine.load(graph, compress=packed)
    rng = random.Random(41)
    live = sorted(
        (fact.subject, fact.predicate, fact.object)
        for fact in graph.triples() if fact.period.end == NOW
    )
    time = engine.horizon
    for serial in range(150):
        time += rng.randrange(3)
        if live and rng.random() < 0.45:
            fact = live.pop(rng.randrange(len(live)))
            engine.delete(*fact, time)
        else:
            fact = (f"s{rng.randrange(30)}", f"p{rng.randrange(5)}",
                    f"n{serial}")
            engine.insert(*fact, time)
            live.append(fact)
    return engine


def write_fixtures():
    """Write both snapshots and their rows, one row a line."""
    parts = []
    for mode in MODES:
        engine = build_engine(packed=mode == "packed")
        save_snapshot(engine, snapshot_path(mode))
        lines = ",\n".join(json.dumps(row) for row in decoded_rows(engine))
        parts.append(f'"{mode}": [\n{lines}\n]')
    ROWS.write_text("{\n" + ",\n".join(parts) + "\n}\n")


def index_payload(path):
    """The index names a snapshot file holds."""
    with open(path, "rb") as handle:
        assert handle.read(len(SNAPSHOT_MAGIC)) == SNAPSHOT_MAGIC
        return set(pickle.load(handle)["indexes"])


def committed_rows(mode):
    return [tuple(row) for row in json.loads(ROWS.read_text())[mode]]


def reference_of(rows):
    reference = ReferenceHistory()
    for s, p, o, start, end in rows:
        fact = (s, p, o)
        reference.seen.add(fact)
        if end == NOW:
            reference.live[fact] = start
        else:
            reference.closed.append((s, p, o, start, end))
    return reference


def answers(engine, text):
    return sorted(
        tuple(sorted((k, str(v)) for k, v in row.items()))
        for row in engine.query(text).rows
    )


@pytest.mark.parametrize("mode", MODES)
def test_an_older_snapshot_reads_its_rows(mode):
    assert index_payload(snapshot_path(mode)) == ORDERS | {"sop"}
    engine, _ = load_snapshot(snapshot_path(mode), use_optimizer=False)
    assert engine.indexes.keys() == ORDERS
    rows = committed_rows(mode)
    spo = engine.indexes["spo"]
    assert spo.is_packed is (mode == "packed")
    # The file is of the older kind: some copy keeps a start before its
    # leaf's birth.
    assert any(start < leaf.start for leaf in spo.leaf_nodes()
               for _, start, _ in leaf.rows())
    assert decoded_rows(engine) == rows
    assert_matches(engine, reference_of(rows))
    graph = TemporalGraph()
    for s, p, o, start, end in rows:
        graph.add(s, p, o, start, end)
    fresh = RDFTX.from_graph(graph, config=SMALL)
    for text in QUERIES:
        assert answers(engine, text) == answers(fresh, text), text
    assert any(answers(engine, text) for text in QUERIES)


@pytest.mark.parametrize("mode", MODES)
def test_updates_on_an_older_snapshot_keep_its_history(mode, tmp_path):
    engine, _ = load_snapshot(snapshot_path(mode), use_optimizer=False)
    assert engine.indexes.keys() == ORDERS
    reference = reference_of(committed_rows(mode))
    rng = random.Random(5)
    time = engine.horizon
    for serial in range(300):
        time += rng.randrange(2)
        live = sorted(reference.live)
        if live and rng.random() < 0.5:
            fact = rng.choice(live)
            op = "delete"
        else:
            dead = sorted(reference.seen - set(reference.live))
            if dead and rng.random() < 0.5:
                fact = rng.choice(dead)
            else:
                fact = (f"s{rng.randrange(30)}", "p1", f"u{serial}")
            op = "insert"
        getattr(engine, op)(*fact, time)
        getattr(reference, op)(fact, time)
    assert_matches(engine, reference)
    engine.check_invariants()
    saved = save_snapshot(engine, tmp_path / "resaved.snap")
    assert index_payload(saved) == ORDERS
    reopened, _ = load_snapshot(saved, use_optimizer=False)
    assert reopened.indexes.keys() == ORDERS
    assert_matches(reopened, reference)


if __name__ == "__main__":
    sys.exit(write_fixtures())
