"""One write check, one rule, on every API.

``RDFTX.check_update`` is the only write check: the engine runs it before
its apply, a ``TemporalStore`` before its WAL append, and a cluster's
shards through their stores.  A delete at a fact's own start chronon is
accepted everywhere and leaves no row: the entry it ends was never
visible (``MVBT.history`` skips it).  Once the check has passed, the
three trees take an insert without a duplicate probe, so the SPO probe
of the check is the insert's only search of a live index.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cluster import ClusterStore
from repro.engine import RDFTX
from repro.model import NOW, Period, PeriodSet, TemporalGraph
from repro.mvbt.compression import CompressedLeafStore
from repro.mvbt.tree import MVBTConfig, TimeOrderError
from repro.optimizer import Optimizer
from repro.service import TemporalStore

T = 1000
FACT = ("a", "b", "c")
#: What every API answers once ``FACT`` was inserted and deleted at ``T``
#: beside a neighbour that stays: the neighbour alone.
ANSWERS = {
    "SELECT ?o ?t {a b ?o ?t}": [],
    "SELECT ?s {?s b c ?t}": [{"s": "x"}],
    "SELECT ?s ?p ?o {?s ?p ?o ?t}": [{"s": "x", "p": "b", "o": "c"}],
}


def _insert_and_delete_at_once(api) -> None:
    api.insert("x", "b", "c", T - 1)
    api.insert(*FACT, T)
    api.delete(*FACT, T)


def _answers(api) -> dict:
    return {text: api.query(text).rows for text in ANSWERS}


def _neighbour_only(engine) -> list:
    ids = [engine.dictionary.lookup(term) for term in ("x", "b", "c")]
    return [(*ids, T - 1, NOW)]


def test_the_engine_accepts_a_delete_at_the_start():
    engine = RDFTX(optimizer=Optimizer())
    _insert_and_delete_at_once(engine)
    assert engine.history_rows() == _neighbour_only(engine)
    assert _answers(engine) == ANSWERS
    assert engine.when(*FACT) == PeriodSet()
    # The watermark is at the pair's chronon: no earlier write.
    with pytest.raises(TimeOrderError):
        engine.insert("y", "b", "c", T - 1)
    # The same chronon takes the fact again, live from there.
    engine.insert(*FACT, T)
    assert engine.when(*FACT) == PeriodSet([Period(T, NOW)])
    engine.check_invariants()


def test_the_store_accepts_it_and_recovers_it(tmp_path):
    with TemporalStore(tmp_path, fsync=False) as store:
        _insert_and_delete_at_once(store)
        rows = store.engine.history_rows()
        assert rows == _neighbour_only(store.engine)
        assert _answers(store) == ANSWERS
        revision = store.revision
        histogram = pickle.dumps(store.engine.optimizer.statistics.histogram)
    assert revision == 3
    # WAL recovery re-applies all three records.
    with TemporalStore(tmp_path, fsync=False) as store:
        assert (store.replayed, store.revision) == (3, revision)
        assert store.engine.history_rows() == rows
        assert _answers(store) == ANSWERS
        assert pickle.dumps(
            store.engine.optimizer.statistics.histogram) == histogram
        store.checkpoint()
    # The snapshot holds the same history; nothing is left to replay.
    with TemporalStore(tmp_path, fsync=False) as store:
        assert (store.replayed, store.revision) == (0, revision)
        assert store.engine.history_rows() == rows
        assert _answers(store) == ANSWERS


def test_a_cluster_accepts_it(tmp_path):
    with ClusterStore(tmp_path / "clu", shards=2, fsync=False,
                      query_cache_size=None) as cluster:
        _insert_and_delete_at_once(cluster)
        assert _answers(cluster) == ANSWERS


# ----------------------------------------------------- the probe guard


def _finds(monkeypatch) -> list:
    """Record every search of a packed leaf's live index."""
    calls: list = []
    find = CompressedLeafStore._find

    def counted(self, key):
        calls.append(key)
        return find(self, key)

    monkeypatch.setattr(CompressedLeafStore, "_find", counted)
    return calls


def _stream():
    """Inserts and deletes over capacity-8 leaves (version splits, key
    splits and merges), a delete at the start and a re-insert; the terms
    repeat, so most inserts name known terms only."""
    def fact(i):
        return f"s{i % 7}", f"p{i % 3}", f"o{i % 5}"

    time = 10
    for i in range(60):
        yield "insert", fact(i), time
        time += 1
        if i % 3 == 2:
            yield "delete", fact(i - 2), time
    yield "insert", FACT, time
    yield "delete", FACT, time
    yield "insert", FACT, time


@pytest.mark.parametrize("api", ["engine", "store"])
def test_an_insert_searches_one_live_index(api, tmp_path, monkeypatch):
    """The check's SPO probe is an insert's only search (none when a term
    is new: such a fact cannot be live); a delete adds the three trees'
    own searches for the record it ends."""
    config = MVBTConfig(8, 2, 1)
    if api == "engine":
        target = RDFTX(config=config, optimizer=Optimizer())
        target.load(TemporalGraph())
        engine = target
    else:
        target = TemporalStore(tmp_path, config=config, fsync=False)
        engine = target.engine
    assert all(tree.is_packed for tree in engine.indexes.values())
    calls = _finds(monkeypatch)
    counts: dict = {"known": set(), "new": set(), "delete": set()}
    for op, fact, time in _stream():
        kind = op
        if op == "insert":
            known = engine.dictionary is not None and all(
                term in engine.dictionary for term in fact)
            kind = "known" if known else "new"
        calls.clear()
        getattr(target, op)(*fact, time)
        counts[kind].add(len(calls))
    if api == "store":
        target.close()
    assert counts == {"known": {1}, "new": {0}, "delete": {4}}
    assert engine.indexes["spo"].live_root.start > 10  # it split
    engine.check_invariants()
