"""Writes keep the optimizer statistics current.

After a load, every insert and delete the engine applies lands in the
temporal histogram as time-ordered points (``TemporalHistogram.insert`` /
``delete``) instead of a rebuild.  The contract, after a stream-aware,
deterministic, bounded-error summary: over any update stream the
maintained histogram stays within a pinned q-error of
``build_rows(history_rows())``, and the same stream twice gives the same
histogram, byte for byte.

The streams mix new subjects, predicates past the load's largest id, new
predicates on existing subjects (the subject's characteristic set grows),
a subject's last live fact deleted and re-inserted, and same-chronon
insert/delete pairs.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import RDFTX
from repro.model import TemporalGraph
from repro.model.graph import raw_size
from repro.model.time import NOW
from repro.mvsbt.compressed import CLeafEntry
from repro.mvsbt.histogram import TemporalHistogram
from repro.optimizer import Optimizer
from repro.service.store import TemporalStore

#: Largest q-error allowed between a maintained estimate and a rebuild's,
#: for the totals over every key (triples alive, subjects alive).  A
#: subject whose set grows at ``t`` shows its live facts and its lifetime
#: under both keys in a window around ``t``; a same-chronon pair counts in
#: the windows around its chronon; and summaries re-profiled long after
#: their band closed merge an early step into a ramp (the largest misses,
#: in windows on the loaded history).  Over 400 seeded streams the largest
#: was 5.9.
PINNED_TOTAL_QERROR = 8.0
#: The same for one predicate's occurrences, which also carry the CMVSBT's
#: spread of a leaf entry's mass over its key range: a rebuild misses the
#: exact counts of these small graphs by up to 16 itself, and maintained
#: and rebuilt estimates were at most 19.6 apart.
PINNED_PREDICATE_QERROR = 24.0

UNIT = {"cm": 1, "lm": 1, "budget_fraction": float("inf")}


def base_graph():
    graph = TemporalGraph()
    for i in range(90):
        end = NOW if i % 4 else 40 + i
        graph.add(f"s{i % 25}", f"p{i % 6}", f"o{i % 37}", 1 + i % 11, end)
    return graph


def update_stream(seed: int, length: int) -> list[tuple]:
    """``(op, subject, predicate, object, time)`` events a loaded
    :func:`base_graph` engine accepts, in time order."""
    rng = random.Random(seed)
    live = {
        (f"s{i % 25}", f"p{i % 6}", f"o{i % 37}")
        for i in range(90) if i % 4
    }
    ops: list[tuple] = []
    time = 200
    serial = 0

    def insert(fact):
        if fact not in live:
            live.add(fact)
            ops.append(("insert", *fact, time))

    def delete(fact):
        live.discard(fact)
        ops.append(("delete", *fact, time))

    for _ in range(length):
        time += rng.choice((0, 0, 1, 3))
        serial += 1
        kind = rng.randrange(6)
        subject = f"s{rng.randrange(30)}"  # s25..s29 are new subjects
        if kind == 0:
            insert((f"new{serial}", f"p{rng.randrange(6)}", f"o{serial}"))
        elif kind == 1:
            # A predicate no load saw: its id is past the stride.
            insert((subject, f"q{rng.randrange(4)}", f"o{rng.randrange(40)}"))
        elif kind == 2:
            insert((subject, f"p{rng.randrange(6)}", f"v{serial}"))
        elif kind == 3 and live:
            delete(rng.choice(sorted(live)))
        elif kind == 4:
            # The subject's last live fact goes, then it comes back later.
            mine = sorted(fact for fact in live if fact[0] == subject)
            for fact in mine:
                delete(fact)
            time += rng.choice((0, 2))
            insert(mine[0] if mine else (subject, "p0", f"w{serial}"))
        else:
            # Same-chronon pair: an insert and a delete of one fact.
            fact = (subject, f"p{rng.randrange(6)}", f"x{serial}")
            insert(fact)
            delete(fact)
    return ops


def maintained_engine(ops, **params) -> RDFTX:
    engine = RDFTX.from_graph(base_graph(), optimizer=Optimizer(**params))
    for op, *fact in ops:
        getattr(engine, op)(*fact)
    return engine


def qerror(got: float, want: float) -> float:
    got, want = max(got, 1.0), max(want, 1.0)
    return max(got / want, want / got)


def walked_sizeof(tree) -> int:
    return sum(
        72 if isinstance(entry, CLeafEntry) else 64 + 24 * len(entry.points)
        for node in tree.iter_nodes() for entry in node.entries
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), length=st.integers(1, 80))
def test_maintained_estimates_track_a_rebuild(seed, length):
    engine = maintained_engine(update_stream(seed, length), **UNIT)
    maintained = engine.optimizer.statistics.histogram
    rows = engine.history_rows()
    rebuilt = TemporalHistogram(cm=1, lm=1, budget_fraction=float("inf"))
    rebuilt.build_rows(rows, raw_size(engine.dictionary, rows))
    assert maintained.total_triples >= rebuilt.total_triples
    horizon = engine.horizon
    windows = [(0, NOW), (1, 12), (40, 140), (199, horizon),
               (horizon - 3, horizon), (horizon - 1, NOW)]
    for t1, t2 in windows:
        assert qerror(maintained.triples_alive(t1, t2),
                      rebuilt.triples_alive(t1, t2)) <= PINNED_TOTAL_QERROR
        subjects = [
            sum(h.subjects_alive(cs, t1, t2) for cs in range(len(h.charsets)))
            for h in (maintained, rebuilt)
        ]
        assert qerror(*subjects) <= PINNED_TOTAL_QERROR
        for pid in rebuilt.charsets.with_predicate:
            assert qerror(
                maintained.predicate_occurrences(pid, t1, t2),
                rebuilt.predicate_occurrences(pid, t1, t2),
            ) <= PINNED_PREDICATE_QERROR
    # Every subject's set holds its whole history's, as a rebuild finds
    # it; a fact inserted and deleted at one chronon never shows in the
    # history, but its predicate stays in the set.
    for sid, cs in rebuilt.charsets.of_subject.items():
        mine = maintained.charsets.of_subject[sid]
        assert rebuilt.charsets.sets[cs] <= maintained.charsets.sets[mine]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), length=st.integers(1, 120),
       params=st.sampled_from([UNIT, {}, {"budget_fraction": 0.02}]))
def test_the_same_stream_gives_the_same_histogram(seed, length, params):
    ops = update_stream(seed, length)
    first = maintained_engine(ops, **params).optimizer.statistics.histogram
    second = maintained_engine(ops, **params).optimizer.statistics.histogram
    assert pickle.dumps(first) == pickle.dumps(second)
    for pair in (first._subjects, first._occurrences):
        for tree in (pair.starts, pair.ends):
            assert tree.sizeof() == walked_sizeof(tree)


def test_a_tight_budget_coarsens_as_the_histogram_outgrows_it():
    """While growth keeps the histogram past its budget, each write doubles
    the leaf threshold for the points after it, until the histogram fits
    again; the index threshold stays."""
    engine = RDFTX.from_graph(base_graph(), optimizer=Optimizer(
        cm=1, lm=1, budget_fraction=1.0))
    histogram = engine.optimizer.statistics.histogram
    first = histogram.cm, histogram.lm
    for i in range(600):
        engine.insert(f"t{i}", f"r{i}", "x", 300 + i)
    assert histogram.cm > first[0]
    assert histogram.lm == first[1]
    assert histogram.core_sizeof() <= histogram.raw_bytes
    trees = [histogram._subjects.starts, histogram._occurrences.ends]
    assert {(tree.cm, tree.lm) for tree in trees} == {
        (histogram.cm, histogram.lm)}
    assert histogram.raw_bytes == raw_size(
        engine.dictionary, engine.history_rows())


def distinct_keys(histogram) -> None:
    """Every (set, predicate) pair the sets hold has a key of its own."""
    keys = [
        histogram._occ_key(cs, pid)
        for cs, predicates in enumerate(histogram.charsets.sets)
        for pid in predicates
    ]
    assert None not in keys
    assert len(set(keys)) == len(keys)
    assert all(key < histogram._top for key in keys)


def test_sets_made_by_writes_key_every_predicate_apart():
    """A set first made after the load gets its own run of keys, so a
    predicate past the load's largest id never shares a key, and a
    predicate never written estimates nothing."""
    engine = RDFTX.from_graph(base_graph(), optimizer=Optimizer(**UNIT))
    histogram = engine.optimizer.statistics.histogram
    for i in range(12):
        engine.insert(f"s{i}", f"fresh{i % 4}", f"o{i}", 300 + i)
    lookup = engine.dictionary.lookup
    fresh = [lookup(f"fresh{k}") for k in range(4)]
    assert all(pid >= histogram._stride for pid in fresh)
    assert set(fresh) <= set(histogram.charsets.with_predicate)
    distinct_keys(histogram)
    # Past the last set change, the moved facts count once.
    assert histogram.triples_alive(312, NOW) == pytest.approx(
        sum(1 for row in engine.history_rows() if row[4] == NOW), rel=0.2)
    engine.dictionary.encode("never-written")
    unknown = lookup("never-written")
    assert histogram.occurrences(0, unknown, 0, NOW) == 0.0


def many_predicate_stream(store) -> None:
    """Forty predicates written into an empty store, over shared and
    growing subject sets."""
    for i in range(400):
        fact = (f"s{i % 30}", f"p{(i * 7) % 40}", f"o{i}")
        store.insert(*fact, 10 + 2 * i)
        if i % 9 == 8:
            store.delete(*fact, 11 + 2 * i)


def test_a_store_that_starts_empty_counts_each_predicate(tmp_path):
    """A store opened without a snapshot builds its statistics from an
    empty graph, so every predicate is first seen by a write.  Each keeps
    its own occurrences: summed over the predicates, the estimates stay
    near the true count, not a multiple of it (3.6 times, with a median
    predicate off by 4.6, before sets made by writes got keys of their
    own)."""
    with TemporalStore(tmp_path / "store", fsync=False) as store:
        many_predicate_stream(store)
        engine = store.engine
        maintained = engine.optimizer.statistics.histogram
        distinct_keys(maintained)
        rows = engine.history_rows()
        lookup = engine.dictionary.lookup
        estimated = true = 0.0
        errors = []
        for k in range(40):
            pid = lookup(f"p{k}")
            for t1, t2 in ((0, NOW), (400, 600), (800, NOW)):
                got = maintained.predicate_occurrences(pid, t1, t2)
                want = sum(1 for row in rows
                           if row[1] == pid and row[3] < t2 and row[4] > t1)
                estimated += got
                true += want
                errors.append(qerror(got, want))
        assert estimated == pytest.approx(true, rel=0.5)
        assert sorted(errors)[len(errors) // 2] <= 2.5
        saved = pickle.dumps(maintained)
    # Recovery replays the log into a store built from an empty graph
    # again: the same writes give the same statistics, and a snapshot
    # keeps them as they are.
    with TemporalStore(tmp_path / "store", fsync=False) as store:
        assert store.replayed == 400 + 400 // 9
        assert pickle.dumps(store.engine.optimizer.statistics.histogram) == (
            saved)
        store.checkpoint()
    with TemporalStore(tmp_path / "store", fsync=False) as store:
        assert store.replayed == 0
        # Compared after one pickle round trip of its own: loading rebuilds
        # each characteristic set's frozenset, whose iteration order (and
        # so its pickle) can differ from the live set's.
        assert pickle.dumps(store.engine.optimizer.statistics.histogram) == (
            pickle.dumps(pickle.loads(saved)))
