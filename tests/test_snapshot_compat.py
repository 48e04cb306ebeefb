"""Snapshots written before version-split copies started at the split.

``tests/golden/old_snapshot_{packed,plain}.snap`` were written by
:func:`write_fixtures` at the commit before that change: every copy a
version split made in them keeps its entry's raw start.  The rows each one
holds sit beside it in ``old_snapshot_rows.json``.  Today's trees restore
from those files with each such copy's start clamped to its leaf's, and
with every packed leaf re-encoded against its header (a version-3 leaf
stores no delta bases), so their history, their live starts, their query
answers and the updates applied on top of them must all still agree with
the rows.

They were also written while the engine kept a fourth tree, SOP.  A
restore reads only today's three orders and drops it; the next save
writes none.

All three fixtures are version-1 files, written before canonical integers
became their own ids.  ``old_snapshot_numeric.snap`` (rows in
``old_snapshot_numeric_rows.json``) holds integer terms, and its trees
hold their table ids: a restore keeps those ids, a number first seen
after it takes an inline id, and a query sees both.

``python tests/test_snapshot_compat.py`` rewrites the fixtures with the
code it runs under (``... numeric`` the numeric one alone); done today,
that would write start-at-the-split copies and inline ids, and no longer
test older files.
"""

import json
import pickle
import random
import sys
from pathlib import Path

import pytest

from repro.engine import RDFTX
from repro.model import NOW, TemporalGraph
from repro.model.dictionary import INLINE_BASE, INLINE_LIMIT
from repro.mvbt import compression as comp
from repro.service.snapshot import (SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                                    load_snapshot, save_snapshot)
from tests.test_history import ReferenceHistory, assert_matches, decoded_rows
from tests.test_mvbt_compression import SMALL

GOLDEN = Path(__file__).parent / "golden"
ROWS = GOLDEN / "old_snapshot_rows.json"
NUMERIC = GOLDEN / "old_snapshot_numeric.snap"
NUMERIC_ROWS = GOLDEN / "old_snapshot_numeric_rows.json"
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


def build_numeric_engine():
    """The numeric fixture history: 64 loaded facts, most of whose objects
    are canonical integers, with a numeric subject and a numeric
    predicate, then 90 seeded updates that insert integer objects (some
    already loaded) and delete live facts, on a packed capacity-8 tree."""
    graph = TemporalGraph()
    for i in range(60):
        start = 1 + (i * 5) % 40
        end = NOW if i % 4 else start + 3 + i % 20
        value = str((i * 37) % 200 - 50) if i % 5 else f"v{i}"
        graph.add(f"s{i % 12}", f"p{i % 4}", value, start, end)
    graph.add("42", "p0", "7", 3)
    graph.add("s0", "7", "-1", 4)
    graph.add("s1", "p1", "007", 5)
    graph.add("s2", "p2", str(2**28), 6)
    engine = RDFTX(config=SMALL)
    engine.load(graph, compress=True)
    rng = random.Random(43)
    live = sorted(
        (fact.subject, fact.predicate, fact.object)
        for fact in graph.triples() if fact.period.end == NOW
    )
    time = engine.horizon
    for serial in range(90):
        time += rng.randrange(3)
        if live and rng.random() < 0.4:
            fact = live.pop(rng.randrange(len(live)))
            engine.delete(*fact, time)
        else:
            fact = (f"s{rng.randrange(14)}", f"p{rng.randrange(4)}",
                    str(serial * 3 - 100))
            engine.insert(*fact, time)
            live.append(fact)
    return engine


def write_fixtures():
    """Write the three snapshots and their rows, one row a line."""
    parts = []
    for mode in MODES:
        engine = build_engine(packed=mode == "packed")
        save_snapshot(engine, snapshot_path(mode))
        lines = ",\n".join(json.dumps(row) for row in decoded_rows(engine))
        parts.append(f'"{mode}": [\n{lines}\n]')
    ROWS.write_text("{\n" + ",\n".join(parts) + "\n}\n")
    write_numeric_fixture()


def write_numeric_fixture():
    engine = build_numeric_engine()
    save_snapshot(engine, NUMERIC)
    lines = ",\n".join(json.dumps(row) for row in decoded_rows(engine))
    NUMERIC_ROWS.write_text(f"[\n{lines}\n]\n")


def payload_of(path):
    with open(path, "rb") as handle:
        assert handle.read(len(SNAPSHOT_MAGIC)) == SNAPSHOT_MAGIC
        return pickle.load(handle)


def index_payload(path):
    """The index names a snapshot file holds."""
    return set(payload_of(path)["indexes"])


def saved_starts_before_birth(path):
    """Whether a leaf of the file's SPO tree holds an entry that starts
    before the leaf, as saved: a packed leaf decoded against the bases a
    version-1 or -2 file stores with it."""
    for node in payload_of(path)["indexes"]["spo"]["nodes"]:
        if node["kind"] != "leaf":
            continue
        if "store" in node:
            store = node["store"]
            starts = [start for _, _, start, _ in comp._records(
                store["buf"], tuple(store["base_v"]), store["base_ts"],
                store["base_te"])]
        else:
            starts = [start for _, start, _, _ in node["entries"]]
        if any(start < node["start"] for start in starts):
            return True
    return False


def committed_rows(mode):
    if mode == "numeric":
        return [tuple(row) for row in json.loads(NUMERIC_ROWS.read_text())]
    return [tuple(row) for row in json.loads(ROWS.read_text())[mode]]


def fixture_path(mode):
    return NUMERIC if mode == "numeric" else snapshot_path(mode)


def is_inline(term_id):
    return term_id >= INLINE_BASE - INLINE_LIMIT


def engine_of(rows):
    graph = TemporalGraph()
    for s, p, o, start, end in rows:
        graph.add(s, p, o, start, end)
    return RDFTX.from_graph(graph, config=SMALL)


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
    # leaf's birth.  The restore clamps it to the birth.
    assert saved_starts_before_birth(snapshot_path(mode))
    assert all(start >= leaf.start for leaf in spo.leaf_nodes()
               for _, start, _ in leaf.rows())
    assert decoded_rows(engine) == rows
    assert_matches(engine, reference_of(rows))
    fresh = engine_of(rows)
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


#: Queries on the numeric fixture: integer constants as subject, predicate
#: and object, a FILTER on integer objects, a join on a shared one.
NUMERIC_QUERIES = [
    "SELECT ?s ?p ?t {?s ?p 7 ?t}",
    "SELECT ?p ?o {42 ?p ?o ?t}",
    "SELECT ?s ?o {?s 7 ?o ?t}",
    "SELECT ?s ?o {?s p1 ?o ?t FILTER(?o > 20)}",
    "SELECT ?s ?o {?s p2 ?o ?t}",
    "SELECT ?a ?b ?o {?a p0 ?o ?t1 . ?b p3 ?o ?t2}",
    "SELECT ?s ?p {?s ?p 007 ?t}",
    "SELECT ?s ?p {?s ?p 123456 ?t}",
]


def test_an_older_snapshot_keeps_the_table_ids_of_its_numbers():
    assert payload_of(NUMERIC)["version"] == 1
    engine, meta = load_snapshot(NUMERIC, use_optimizer=False)
    assert meta["version"] == 1
    rows = committed_rows("numeric")
    assert decoded_rows(engine) == rows
    assert_matches(engine, reference_of(rows))
    lookup = engine.dictionary.lookup
    # Written before integers were inlined: its numbers are table terms.
    assert not any(is_inline(lookup(term)) for term in ("7", "42", "-13"))
    fresh = engine_of(rows)
    assert is_inline(fresh.dictionary.lookup("7"))
    for text in NUMERIC_QUERIES:
        assert answers(engine, text) == answers(fresh, text), text
    assert all(answers(engine, text) for text in NUMERIC_QUERIES[:6])


@pytest.mark.parametrize("mode", MODES + ("numeric",))
def test_numbers_inserted_after_a_restore(mode, tmp_path):
    """A fact whose integer object the fixture's table already holds and
    one whose integer object it does not: both are found, through a save
    and a reopen, and the table id stays the table id."""
    engine, _ = load_snapshot(fixture_path(mode), use_optimizer=False)
    rows = committed_rows(mode)
    reference = reference_of(rows)
    known = "7" if mode == "numeric" else "s3"
    time = engine.horizon + 1
    inserted = [("s3", "p1", known), ("s3", "p1", "123456"),
                ("s4", "p2", "123456"), ("-5", "p4", "0")]
    for fact in inserted:
        engine.insert(*fact, time)
        reference.insert(fact, time)
    engine.delete("s4", "p2", "123456", time + 2)
    reference.delete(("s4", "p2", "123456"), time + 2)
    lookup = engine.dictionary.lookup
    assert is_inline(lookup(known)) is False
    assert is_inline(lookup("123456")) and is_inline(lookup("-5"))
    assert_matches(engine, reference)
    expected = engine_of(reference.rows())
    texts = [f"SELECT ?s ?t {{?s p1 {known} ?t}}",
             "SELECT ?s ?p ?t {?s ?p 123456 ?t}",
             "SELECT ?o {s3 p1 ?o ?t}",
             'SELECT ?p ?o {"-5" ?p ?o ?t}',
             "SELECT ?a ?b {?a p1 ?o ?t1 . ?b p2 ?o ?t2}"]
    for text in texts:
        assert answers(engine, text) == answers(expected, text), text
    assert {row["o"] for row in engine.query(texts[2]).rows} >= {
        known, "123456"}
    saved = save_snapshot(engine, tmp_path / "resaved.snap")
    assert payload_of(saved)["version"] == SNAPSHOT_VERSION == 3
    reopened, meta = load_snapshot(saved, use_optimizer=False)
    assert meta["version"] == 3
    assert_matches(reopened, reference)
    assert reopened.dictionary.lookup(known) == lookup(known)
    for text in texts:
        assert answers(reopened, text) == answers(engine, text), text


if __name__ == "__main__":
    sys.exit(write_numeric_fixture() if sys.argv[1:] == ["numeric"]
             else write_fixtures())
