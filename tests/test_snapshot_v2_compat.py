"""A version-2 snapshot: packed leaves that store delta bases of their own.

``tests/golden/v2_snapshot_packed.snap`` was written by :func:`write_fixture`
at the last commit whose snapshots are version 2, where every packed leaf
saved its minima as bases (``base_v``, ``base_ts``, ``base_te``) beside its
buffer.  Its rows sit in ``v2_snapshot_packed_rows.json``.  Today a packed
leaf's bases are its header (``key_low``, ``start``): a restore decodes each
leaf against the bases it saved and re-encodes it against its header, so
the engine must read back the same rows, answer the same queries and take
updates, and a re-save must be version 3 and smaller.

The history mixes short intervals with ones longer than
``SHORT_INTERVAL_LIMIT``, so the file holds records whose end is a delta
against the saved ``base_te``.  ``python tests/test_snapshot_v2_compat.py``
rewrites the fixture with the code it runs under; done today, that would
write a version-3 file and no longer test this one.
"""

import json
import random
import sys
from pathlib import Path

from repro.engine import RDFTX
from repro.model import NOW, TemporalGraph
from repro.mvbt import compression as comp
from repro.service.snapshot import load_snapshot, save_snapshot
from tests.test_history import assert_matches, decoded_rows
from tests.test_mvbt_compression import SMALL
from tests.test_snapshot_compat import (QUERIES, answers, engine_of,
                                        payload_of, reference_of)

GOLDEN = Path(__file__).parent / "golden"
V2 = GOLDEN / "v2_snapshot_packed.snap"
V2_ROWS = GOLDEN / "v2_snapshot_packed_rows.json"

#: Chronons per step of the history, so that many intervals outlast the
#: short-interval limit.
STEP = 1_000


def build_engine():
    """96 loaded facts and 150 seeded updates on capacity-8 packed trees,
    at chronons ``STEP`` apart."""
    graph = TemporalGraph()
    for i in range(96):
        start = STEP * (1 + (i * 7) % 50)
        end = NOW if i % 3 else start + STEP * (5 + i % 80)
        graph.add(f"s{i % 24}", f"p{i % 5}", f"o{i % 13}", start, end)
    engine = RDFTX(config=SMALL)
    engine.load(graph, compress=True)
    rng = random.Random(54)
    live = sorted(
        (fact.subject, fact.predicate, fact.object)
        for fact in graph.triples() if fact.period.end == NOW
    )
    time = engine.horizon
    for serial in range(150):
        time += STEP * rng.randrange(3)
        if live and rng.random() < 0.45:
            fact = live.pop(rng.randrange(len(live)))
            engine.delete(*fact, time)
        else:
            fact = (f"s{rng.randrange(30)}", f"p{rng.randrange(5)}",
                    f"n{serial}")
            engine.insert(*fact, time)
            live.append(fact)
    return engine


def write_fixture():
    engine = build_engine()
    save_snapshot(engine, V2)
    lines = ",\n".join(json.dumps(row) for row in decoded_rows(engine))
    V2_ROWS.write_text(f"[\n{lines}\n]\n")


def committed_rows():
    return [tuple(row) for row in json.loads(V2_ROWS.read_text())]


def saved_records():
    """Every record of every packed leaf in the file, decoded against the
    bases the leaf saved."""
    for tree in payload_of(V2)["indexes"].values():
        for node in tree["nodes"]:
            if node["kind"] == "leaf":
                store = node["store"]
                yield from comp._records(
                    store["buf"], tuple(store["base_v"]), store["base_ts"],
                    store["base_te"])


def test_the_fixture_is_a_version_2_file_with_long_intervals():
    assert payload_of(V2)["version"] == 2
    ends = [(end, start) for _, _, start, end in saved_records()]
    assert any(end != NOW and end - start > comp.SHORT_INTERVAL_LIMIT
               for end, start in ends)


def test_a_version_2_snapshot_reads_its_rows_and_resaves_smaller(tmp_path):
    engine, meta = load_snapshot(V2, use_optimizer=False)
    assert meta["version"] == 2
    rows = committed_rows()
    assert decoded_rows(engine) == rows
    assert_matches(engine, reference_of(rows))
    engine.check_invariants()  # bases are the headers, starts clamped
    fresh = engine_of(rows)
    for text in QUERIES:
        assert answers(engine, text) == answers(fresh, text), text
    saved = save_snapshot(engine, tmp_path / "resaved.snap")
    assert payload_of(saved)["version"] == 3
    assert saved.stat().st_size < V2.stat().st_size
    reopened, _ = load_snapshot(saved, use_optimizer=False)
    assert decoded_rows(reopened) == rows
    for name, tree in reopened.indexes.items():
        for leaf, back in zip(engine.indexes[name].leaf_nodes(),
                              tree.leaf_nodes()):
            assert bytes(leaf._store._buf) == bytes(back._store._buf)


def test_updates_on_a_version_2_snapshot_keep_its_history(tmp_path):
    engine, _ = load_snapshot(V2, use_optimizer=False)
    reference = reference_of(committed_rows())
    rng = random.Random(7)
    time = engine.horizon
    for serial in range(300):
        time += STEP * rng.randrange(2)
        live = sorted(reference.live)
        if live and rng.random() < 0.5:
            fact = rng.choice(live)
            op = "delete"
        else:
            fact = (f"s{rng.randrange(30)}", "p1", f"u{serial}")
            op = "insert"
        getattr(engine, op)(*fact, time)
        getattr(reference, op)(fact, time)
    assert_matches(engine, reference)
    engine.check_invariants()
    reopened, _ = load_snapshot(
        save_snapshot(engine, tmp_path / "resaved.snap"), use_optimizer=False)
    assert_matches(reopened, reference)


if __name__ == "__main__":
    sys.exit(write_fixture())
