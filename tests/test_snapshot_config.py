"""A snapshot keeps the tree shape it was saved with.

A snapshot stores its ``MVBTConfig`` (``service/snapshot.py``), so changing
the engine's default shape (``repro.engine.engine.DEFAULT_CONFIG``) changes
no existing store: a restored engine keeps the saved shape, its writes split
nodes by it, and a checkpoint saves it again.  Everything built fresh — a
``TemporalStore`` over an empty directory, one opened over a WAL with no
snapshot, each shard of a new ``ClusterStore`` — takes the default.
"""

import shutil
from pathlib import Path

import pytest

from repro.cluster import ClusterStore
from repro.engine.engine import DEFAULT_CONFIG
from repro.model import TemporalGraph
from repro.mvbt.tree import MVBTConfig
from repro.service.snapshot import SNAPSHOT_VERSION, load_snapshot
from repro.service.store import TemporalStore

GOLDEN = Path(__file__).parent / "golden"

#: The shape both fixtures were saved with.
SAVED = MVBTConfig(block_capacity=8, weak_min=2, epsilon=1)

FIXTURES = ["v2_snapshot_packed.snap", "old_snapshot_packed.snap"]


def shapes(engine) -> set:
    return {engine.config} | {tree.config for tree in engine.indexes.values()}


def write(store: TemporalStore, updates: int) -> None:
    """``updates`` inserts on a few subjects past the horizon, every third
    fact deleted again: enough writes to split capacity-8 leaves."""
    time = store.engine.horizon
    for serial in range(updates):
        fact = (f"s{serial % 4}", "p_new", f"o_new{serial}")
        store.insert(*fact, time + serial)
        if serial % 3 == 0:
            store.delete(*fact, time + serial + 1)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_a_restored_snapshot_keeps_writes_and_resaves_its_shape(
        tmp_path, fixture):
    engine, meta = load_snapshot(GOLDEN / fixture)
    assert shapes(engine) == {SAVED}
    assert meta["version"] < SNAPSHOT_VERSION
    directory = tmp_path / "store"
    directory.mkdir()
    shutil.copy(GOLDEN / fixture, directory / TemporalStore.SNAPSHOT_NAME)
    with TemporalStore(directory, fsync=False) as store:
        assert shapes(store.engine) == {SAVED}
        nodes = sum(1 for _ in store.engine.indexes["spo"].iter_nodes())
        write(store, 60)
        store.engine.check_invariants()  # node sizes bounded by b = 8
        assert sum(1 for _ in store.engine.indexes["spo"].iter_nodes()) > (
            nodes)
        rows = store.engine.history_rows()
        store.checkpoint()
    resaved, meta = load_snapshot(directory / TemporalStore.SNAPSHOT_NAME)
    assert meta["version"] == SNAPSHOT_VERSION
    assert shapes(resaved) == {SAVED}
    assert resaved.history_rows() == rows
    with TemporalStore(directory, fsync=False) as reopened:
        assert shapes(reopened.engine) == {SAVED}
        assert reopened.engine.history_rows() == rows


def test_a_fresh_store_takes_the_default_shape(tmp_path):
    with TemporalStore(tmp_path / "empty", fsync=False) as store:
        assert shapes(store.engine) == {DEFAULT_CONFIG}
        graph = TemporalGraph()
        graph.add("s", "p", "o", 1)
        store.load_dataset(graph)
        assert shapes(store.engine) == {DEFAULT_CONFIG}
    engine, _ = load_snapshot(tmp_path / "empty" / TemporalStore.SNAPSHOT_NAME)
    assert shapes(engine) == {DEFAULT_CONFIG}


def test_a_store_over_a_wal_alone_takes_the_default_shape(tmp_path):
    directory = tmp_path / "wal_only"
    with TemporalStore(directory, fsync=False) as store:
        write(store, 6)
        rows = store.engine.history_rows()
    assert not (directory / TemporalStore.SNAPSHOT_NAME).exists()
    with TemporalStore(directory, fsync=False) as reopened:
        assert reopened.replayed == 8
        assert shapes(reopened.engine) == {DEFAULT_CONFIG}
        assert reopened.engine.history_rows() == rows


def test_each_shard_of_a_fresh_cluster_takes_the_default_shape(tmp_path):
    with ClusterStore(tmp_path / "cluster", shards=2, fsync=False) as cluster:
        for serial in range(8):
            cluster.insert(f"subj{serial}", "p", "o", serial + 1)
        cluster.checkpoint()
    live = 0
    for shard in range(2):
        snapshot = (tmp_path / "cluster" / f"shard-{shard}"
                    / TemporalStore.SNAPSHOT_NAME)
        engine, _ = load_snapshot(snapshot)
        assert shapes(engine) == {DEFAULT_CONFIG}, shard
        live += engine.indexes["spo"].live_records
    assert live == 8
