"""Snapshots: full-engine round trip, magic detection, corruption handling."""

import pickle

import pytest

from repro.engine import RDFTX
from repro.model import NOW, TemporalGraph, date_to_chronon
from repro.mvbt.tree import MVBTConfig
from repro.optimizer import Optimizer
from repro.service.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotError,
    is_snapshot,
    load_snapshot,
    restore_engine,
    save_snapshot,
    serialize_engine,
)

D = date_to_chronon

QUERIES = [
    "SELECT ?t {UC president Janet_Napolitano ?t}",
    "SELECT ?budget {UC budget ?budget ?t . FILTER(YEAR(?t) = 2013)}",
    "SELECT ?s ?o {?s president ?o ?t}",
    "SELECT ?p ?o {UC ?p ?o ?t . FILTER(YEAR(?t) = 2014)}",
]


def _fixture_graph():
    g = TemporalGraph()
    g.add("UC", "president", "Mark_Yudof", D("06/16/2008"), D("09/30/2013"))
    g.add("UC", "president", "Janet_Napolitano", D("09/30/2013"))
    g.add("UC", "endowment", "10.3", D("07/01/2013"), D("07/01/2014"))
    g.add("UC", "endowment", "13.1", D("07/01/2014"))
    g.add("UC", "budget", "22.7", D("01/30/2013"), D("01/30/2015"))
    g.add("UC", "budget", "25.46", D("01/30/2015"))
    g.add("UM", "president", "Mary_Sue_Coleman", D("08/01/2002"),
          D("07/01/2014"))
    g.add("UM", "president", "Mark_Schlissel", D("07/01/2014"))
    return g


def _rows(engine, text):
    return sorted(
        tuple(sorted((k, str(v)) for k, v in row.items()))
        for row in engine.query(text).rows
    )


@pytest.fixture()
def engine():
    return RDFTX.from_graph(
        _fixture_graph(),
        config=MVBTConfig(block_capacity=8, weak_min=2, epsilon=1),
        optimizer=Optimizer(),
    )


class TestRoundTrip:
    def test_queries_identical_after_reload(self, engine, tmp_path,
                                            scan_modes):
        path = save_snapshot(engine, tmp_path / "e.snap")
        restored, meta = load_snapshot(path)
        assert meta["version"] == 1
        for mode in scan_modes():
            for text in QUERIES:
                assert _rows(restored, text) == _rows(engine, text), mode

    def test_structure_preserved(self, engine, tmp_path):
        save_snapshot(engine, tmp_path / "e.snap")
        restored, _ = load_snapshot(tmp_path / "e.snap")
        for name, tree in engine.indexes.items():
            other = restored.indexes[name]
            assert other.live_records == tree.live_records
            assert other.current_time == tree.current_time
            assert other.sizeof() == tree.sizeof()
        assert restored.dictionary.max_id == engine.dictionary.max_id
        assert restored.history_rows() == engine.history_rows()

    def test_updates_after_reload(self, engine, tmp_path, scan_modes):
        save_snapshot(engine, tmp_path / "e.snap")
        restored, _ = load_snapshot(tmp_path / "e.snap")
        t = restored.horizon + 10
        restored.insert("UC", "president", "Michael_Drake", t)
        for mode in scan_modes():
            result = restored.query("SELECT ?o {UC president ?o ?t}")
            assert "Michael_Drake" in result.column("o"), mode

    @pytest.mark.parametrize("legacy", [False, True])
    def test_restored_engine_keeps_history_compressed(self, engine, legacy):
        """The trees' packed flag rides the snapshot (and is inferred for
        snapshots written before it existed): version splits after a
        restart still create their leaves packed."""
        payload = pickle.loads(pickle.dumps(serialize_engine(engine)))
        if legacy:
            for state in payload["indexes"].values():
                del state["packed"]
        restored = restore_engine(payload)
        t = engine.horizon + 10
        for i in range(80):
            for target in (engine, restored):
                target.insert(f"s{i % 9}", "visited", f"o{i}", t + i)
                if i % 4 == 3:
                    target.delete(f"s{(i - 2) % 9}", "visited", f"o{i - 2}",
                                  t + i)
        for name, tree in restored.indexes.items():
            tree.check_invariants()
            assert all(n.is_compressed for n in tree.leaf_nodes()), name
            assert any(not n.is_alive for n in tree.leaf_nodes()), name
            assert tree.sizeof() == engine.indexes[name].sizeof()

    def test_snapshot_with_plain_live_leaves_still_opens(self, engine,
                                                         tmp_path,
                                                         scan_modes):
        """A snapshot from before leaves were packed from birth: packed
        trees whose split-born live leaves are plain entry lists.
        Restore packs them; answers hold and the size stays compressed."""
        t = engine.horizon + 10
        for i in range(80):
            engine.insert(f"s{i % 9}", "visited", f"o{i}", t + i)
        expected = {text: _rows(engine, text) for text in QUERIES}
        packed_size = engine.sizeof()
        for tree in engine.indexes.values():
            for leaf in tree.leaf_nodes():
                if leaf.is_alive:
                    leaf.decompress()
        assert engine.sizeof() > packed_size
        path = save_snapshot(engine, tmp_path / "legacy.snap")
        restored, _ = load_snapshot(path)
        for name, tree in restored.indexes.items():
            tree.check_invariants()
            assert all(n.is_compressed for n in tree.leaf_nodes()), name
        for mode in scan_modes():
            for text in QUERIES:
                assert _rows(restored, text) == expected[text], mode
        # Re-packed leaves take their bases from everything they hold,
        # not from a birth set: within a few bytes per leaf of the original.
        assert abs(restored.sizeof() - packed_size) < 0.01 * packed_size
        restored.insert("s1", "visited", "after", t + 100)
        restored.delete("s1", "visited", "o1", t + 101)
        restored.check_invariants()

    def test_rows_are_neither_stored_nor_read(self, engine, scan_modes):
        """The trees are the history.  Version-1 files written while the
        engine kept a graph beside them carry its rows under ``"graph"``:
        they still open, to the same engine, and the rows are ignored."""
        engine.insert("UC", "president", "Michael_Drake", D("08/01/2020"))
        payload = serialize_engine(engine)
        assert payload["version"] == 1 and payload["graph"] is None
        legacy = dict(payload, graph=engine.history_rows() + [(9, 9, 9, 1, 2)])
        restored = restore_engine(pickle.loads(pickle.dumps(legacy)))
        assert restored.sizeof() == engine.sizeof()
        assert restored.history_rows() == engine.history_rows()
        for mode in scan_modes():
            for text in QUERIES:
                assert _rows(restored, text) == _rows(engine, text), mode

    def test_missing_histogram_is_rebuilt_from_the_trees(self, engine):
        engine.insert("UC", "president", "Michael_Drake", D("08/01/2020"))
        payload = serialize_engine(engine)
        payload["statistics"] = None
        restored = restore_engine(payload)
        statistics = restored.optimizer.statistics
        assert statistics.dictionary is restored.dictionary
        assert statistics.histogram.total_triples == 9
        assert (restore_engine(payload, use_optimizer=False).optimizer
                is None)

    def test_statistics_survive_without_rebuild(self, engine, tmp_path):
        engine.query(QUERIES[0])  # force statistics to exist
        histogram = engine.optimizer.statistics.histogram
        save_snapshot(engine, tmp_path / "e.snap")
        restored, _ = load_snapshot(tmp_path / "e.snap")
        assert restored.optimizer is not None
        assert restored.optimizer.statistics is not None
        assert (restored.optimizer.statistics.histogram.total_triples
                == histogram.total_triples)

    def test_no_optimizer_load(self, engine, tmp_path, scan_modes):
        save_snapshot(engine, tmp_path / "e.snap")
        restored, _ = load_snapshot(tmp_path / "e.snap",
                                    use_optimizer=False)
        assert restored.optimizer is None
        for mode in scan_modes():
            assert (_rows(restored, QUERIES[2])
                    == _rows(engine, QUERIES[2])), mode

    def test_last_lsn_round_trip(self, engine, tmp_path):
        save_snapshot(engine, tmp_path / "e.snap", last_lsn=42)
        _, meta = load_snapshot(tmp_path / "e.snap")
        assert meta["last_lsn"] == 42

    def test_live_periods_preserved(self, engine, tmp_path, scan_modes):
        save_snapshot(engine, tmp_path / "e.snap")
        restored, _ = load_snapshot(tmp_path / "e.snap")
        for mode in scan_modes():
            result = restored.query(
                "SELECT ?t {UC president Janet_Napolitano ?t}"
            )
            (row,) = result
            (period,) = list(row["t"])
            assert period.end == NOW, mode


class TestFileFormat:
    def test_is_snapshot(self, engine, tmp_path):
        path = save_snapshot(engine, tmp_path / "e.snap")
        assert is_snapshot(path)
        other = tmp_path / "data.tnq"
        other.write_text("UC president X 2013-01-01 now .\n")
        assert not is_snapshot(other)
        assert not is_snapshot(tmp_path / "missing")

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "x.snap"
        path.write_bytes(b"WRONGMAG" + b"rest")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_truncated_payload_raises(self, engine, tmp_path):
        path = save_snapshot(engine, tmp_path / "e.snap")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "x.snap"
        with open(path, "wb") as handle:
            handle.write(SNAPSHOT_MAGIC)
            pickle.dump({"version": 999}, handle)
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_atomic_save_leaves_no_tmp(self, engine, tmp_path):
        save_snapshot(engine, tmp_path / "e.snap")
        assert list(tmp_path.iterdir()) == [tmp_path / "e.snap"]

    def test_overwrite_previous(self, engine, tmp_path, scan_modes):
        path = save_snapshot(engine, tmp_path / "e.snap", last_lsn=1)
        engine.insert("UC", "color", "blue", engine.horizon + 1)
        save_snapshot(engine, path, last_lsn=2)
        restored, meta = load_snapshot(path)
        assert meta["last_lsn"] == 2
        for mode in scan_modes():
            assert restored.query("SELECT ?o {UC color ?o ?t}").rows, mode
