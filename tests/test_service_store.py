"""TemporalStore: durability, recovery, validation, concurrency.

The centerpiece is the crash-recovery property test: a child process
applies a deterministic update stream (checkpoint in the middle), is
SIGKILLed without any shutdown, and the recovered store must answer a
query suite identically to an uncrashed in-process run of the same stream.
"""

import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.datasets import wikipedia
from repro.engine import RDFTX
from repro.model import TemporalGraph, date_to_chronon
from repro.model.time import NOW
from repro.mvbt.tree import DuplicateKeyError, MVBTConfig, TimeOrderError
from repro.optimizer import Optimizer
from repro.service import StoreError, TemporalStore, read_records
from repro.service.wal import WAL_MAGIC

D = date_to_chronon

QUERIES = [
    "SELECT ?o ?t {UC president ?o ?t}",
    "SELECT ?s ?o {?s president ?o ?t}",
    "SELECT ?p ?o {UC ?p ?o ?t . FILTER(YEAR(?t) = 2015)}",
    "SELECT ?o {UC budget ?o ?t}",
    "SELECT ?s {?s member Senate ?t}",
]


def fixture_graph():
    g = TemporalGraph()
    g.add("UC", "president", "Mark_Yudof", D("06/16/2008"), D("09/30/2013"))
    g.add("UC", "president", "Janet_Napolitano", D("09/30/2013"))
    g.add("UC", "budget", "22.7", D("01/30/2013"), D("01/30/2015"))
    g.add("UC", "budget", "25.46", D("01/30/2015"))
    g.add("UM", "president", "Mary_Sue_Coleman", D("08/01/2002"),
          D("07/01/2014"))
    g.add("UM", "president", "Mark_Schlissel", D("07/01/2014"))
    return g


def update_stream(n):
    """A deterministic stream of n valid updates past the fixture horizon."""
    base = D("01/01/2016")
    updates = []
    for i in range(n):
        t = base + 2 * i
        if i % 3 == 2:
            # Delete the member fact inserted two steps earlier.
            updates.append(("delete", f"Person_{i - 2}", "member", "Senate",
                            t))
        else:
            updates.append(("insert", f"Person_{i}", "member", "Senate", t))
    return updates


def apply_stream(store, updates):
    for op, s, p, o, t in updates:
        if op == "insert":
            store.insert(s, p, o, t)
        else:
            store.delete(s, p, o, t)


def result_fingerprint(store):
    return [
        sorted(
            tuple(sorted((k, str(v)) for k, v in row.items()))
            for row in store.query(q).rows
        )
        for q in QUERIES
    ]


def small_blocks(capacity):
    """A block size small enough that a short stream splits leaves."""
    return MVBTConfig(capacity, 2, 1) if capacity else None


def _crash_child(directory, n, capacity=None):
    """Child-process body for the crash test (see TestCrashRecovery)."""
    store = TemporalStore(directory, group_size=4,
                          config=small_blocks(capacity))
    store.load_dataset(fixture_graph())
    updates = update_stream(n)
    apply_stream(store, updates[: n // 2])
    store.checkpoint()
    apply_stream(store, updates[n // 2 :])
    store.sync()  # every acknowledged update is now on disk
    print("READY", flush=True)
    signal.pause()  # wait for the SIGKILL; no clean shutdown ever runs


class TestDurability:
    def test_updates_survive_reopen(self, tmp_path):
        with TemporalStore(tmp_path) as store:
            store.load_dataset(fixture_graph())
            store.insert("UC", "chancellor", "Carol_Christ", D("07/01/2017"))
            lsn = store.delete("UC", "president", "Janet_Napolitano",
                               D("08/01/2020"))
        with TemporalStore(tmp_path) as store:
            assert store.revision == lsn
            result = store.query("SELECT ?o {UC chancellor ?o ?t}")
            assert result.column("o") == ["Carol_Christ"]
            result = store.query(
                "SELECT ?t {UC president Janet_Napolitano ?t}"
            )
            (row,) = result
            (period,) = list(row["t"])
            assert period.end == D("08/01/2020")

    def test_checkpoint_truncates_wal(self, tmp_path):
        with TemporalStore(tmp_path) as store:
            store.load_dataset(fixture_graph())
            store.insert("a", "b", "c", D("01/01/2016"))
            assert len(read_records(store.wal_path)) == 1
            store.checkpoint()
            assert read_records(store.wal_path) == []
            # LSNs keep counting after truncation.
            assert store.insert("d", "e", "f", D("01/02/2016")) == 2

    def test_auto_checkpoint(self, tmp_path):
        with TemporalStore(tmp_path, checkpoint_every=3) as store:
            store.load_dataset(fixture_graph())
            for i in range(7):
                store.insert(f"s{i}", "p", "o", D("01/01/2016") + i)
            # 7 updates with checkpoint_every=3: checkpoints after 3 and 6,
            # one record left in the log.
            assert len(read_records(store.wal_path)) == 1

    def test_load_dataset_requires_empty(self, tmp_path):
        with TemporalStore(tmp_path) as store:
            store.load_dataset(fixture_graph())
            with pytest.raises(StoreError):
                store.load_dataset(fixture_graph())
        with TemporalStore(tmp_path) as store:  # recovered, still non-empty
            with pytest.raises(StoreError):
                store.load_dataset(fixture_graph())

    def test_closed_store_rejects_updates(self, tmp_path):
        store = TemporalStore(tmp_path)
        store.close()
        with pytest.raises(StoreError):
            store.insert("a", "b", "c", D("01/01/2016"))
        with pytest.raises(StoreError):
            store.checkpoint()
        store.close()  # idempotent

    def test_fresh_store_is_queryable(self, tmp_path):
        with TemporalStore(tmp_path) as store:
            assert store.revision == 0
            assert store.query("SELECT ?s {?s p ?o ?t}").rows == []


class TestValidation:
    def test_duplicate_insert_rejected_and_not_logged(self, tmp_path):
        with TemporalStore(tmp_path) as store:
            store.insert("a", "b", "c", D("01/01/2016"))
            with pytest.raises(DuplicateKeyError):
                store.insert("a", "b", "c", D("01/02/2016"))
            assert len(read_records(store.wal_path)) == 1

    def test_delete_of_dead_fact_rejected(self, tmp_path):
        with TemporalStore(tmp_path) as store:
            with pytest.raises(KeyError):
                store.delete("ghost", "b", "c", D("01/01/2016"))

    def test_delete_at_the_start_is_accepted_and_leaves_no_row(
            self, tmp_path):
        """The engine's rule: an entry ended at its own start was never
        visible (tests/test_write_check.py holds it on every API)."""
        with TemporalStore(tmp_path) as store:
            t = D("01/01/2016")
            store.insert("a", "b", "c", t)
            assert store.delete("a", "b", "c", t) == store.revision == 2
            assert store.engine.history_rows() == []

    def test_update_before_watermark_rejected(self, tmp_path):
        with TemporalStore(tmp_path) as store:
            store.insert("a", "b", "c", D("01/01/2016"))
            with pytest.raises(TimeOrderError):
                store.insert("x", "y", "z", D("01/01/2015"))

    def test_rejections_say_what_they_said_and_leave_no_trace(self,
                                                               tmp_path):
        """The engine's write check reads the SPO index (it used to read a
        maintained copy of the data): same exception types and messages,
        and a refused update moves neither the revision, the WAL, the
        index nor the statistics."""
        t = D("01/01/2016")
        with TemporalStore(tmp_path) as store:
            store.load_dataset(fixture_graph())
            store.insert("a", "b", "c", t)
            store.insert("d", "e", "f", t + 5)
            store.delete("d", "e", "f", t + 6)

            def state():
                return (store.revision, store._wal.size_bytes,
                        store.engine.sizeof(), store.engine.history_rows(),
                        pickle.dumps(
                            store.engine.optimizer.statistics.histogram))

            before = state()
            for op, fact, time, error, message in [
                ("insert", ("a", "b", "c"), t + 9, DuplicateKeyError,
                 "fact already live: (a, b, c)"),
                ("insert", ("UC", "budget", "25.46"), t + 9,
                 DuplicateKeyError, "fact already live: (UC, budget, 25.46)"),
                ("delete", ("d", "e", "f"), t + 9, KeyError,
                 "fact not live: (d, e, f)"),
                ("delete", ("UC", "budget", "22.7"), t + 9, KeyError,
                 "fact not live: (UC, budget, 22.7)"),
                ("delete", ("ghost", "b", "c"), t + 9, KeyError,
                 "fact not live: (ghost, b, c)"),
                ("insert", ("x", "y", "z"), t + 5, TimeOrderError,
                 f"update at {t + 5} before watermark {t + 6}"),
                ("delete", ("a", "b", "c"), t, TimeOrderError,
                 f"update at {t} before watermark {t + 6}"),
            ]:
                with pytest.raises(error) as raised:
                    getattr(store, op)(*fact, time)
                assert raised.value.args == (message,)
            assert state() == before
            # A delete at the fact's own start is no refusal: the fact
            # just inserted, ended at once, leaves no row.
            store.insert("g", "h", "i", t + 6)
            store.delete("g", "h", "i", t + 6)
            assert store.engine.history_rows() == before[3]

    @staticmethod
    def _split_at(store, chronon: int) -> None:
        """Nine facts into capacity-8 leaves: ``s0``..``s7`` one chronon
        apart before ``chronon``, ``s8`` at it, which splits every root
        leaf there and copies ``s0``..``s7`` with ``chronon`` as start."""
        for i in range(8):
            store.insert(f"s{i}", "p", "o", chronon - 8 + i)
        store.insert("s8", "p", "o", chronon)
        for tree in store.engine.indexes.values():
            assert tree.live_root.start == chronon
            assert not tree.live_root.is_leaf

    def test_a_later_delete_of_a_split_copy_decodes_no_leaf(
            self, tmp_path, monkeypatch):
        """A delete after the split is after the fact's true start too: the
        copy's own start decides it, and no leaf is walked back.  The walk
        reads leaves past the read memo, so its buffer decodes are counted
        here; the memo's ``leaves_decoded`` stays put as well."""
        from repro.mvbt.compression import CompressedLeafStore
        from repro.obs import metrics

        if not metrics.ENABLED:
            pytest.skip("counters are off (REPRO_OBS=0)")
        decoded = metrics.counter("mvbt.compression.leaves_decoded")
        records = CompressedLeafStore._records
        walked = []

        def counted(self):
            walked.append(self)
            return records(self)

        with TemporalStore(tmp_path, config=small_blocks(8),
                           fsync=False) as store:
            self._split_at(store, 1010)
            monkeypatch.setattr(CompressedLeafStore, "_records", counted)
            for i, time in [(0, 1011), (3, 1012), (7, 1012)]:
                before = decoded.value
                store.delete(f"s{i}", "p", "o", time)
                assert (decoded.value - before, walked) == (0, []), i
            monkeypatch.undo()
            assert store.engine.live_since("s0", "p", "o") is None
            assert store.engine.live_since("s1", "p", "o") == 1003

    def test_deletes_at_the_split_keep_each_true_start(self, tmp_path):
        """At the split chronon a copy and a fact inserted there both start
        at the leaf's birth: deleting the fact leaves no row, deleting the
        copy ends the row that starts where the fact did."""
        with TemporalStore(tmp_path, config=small_blocks(8),
                           fsync=False) as store:
            self._split_at(store, 1010)
            store.delete("s8", "p", "o", 1010)
            assert store.engine.dictionary.encode("s8") not in [
                row[0] for row in store.engine.history_rows()]
            store.delete("s0", "p", "o", 1010)
            assert [row[3:] for row in store.engine.history_rows()
                    if row[0] == store.engine.dictionary.encode("s0")] == [
                        (1002, 1010)]

    def test_update_time_out_of_range(self, tmp_path):
        with TemporalStore(tmp_path) as store:
            with pytest.raises(ValueError):
                store.insert("a", "b", "c", -5)
            with pytest.raises(ValueError):
                store.insert("a", "b", "c", 2**31 - 1)  # NOW is reserved


class TestCrashRecovery:
    @pytest.mark.parametrize("n, capacity", [(24, None), (150, 8)])
    def test_sigkill_then_recover_matches_uncrashed_run(
            self, tmp_path, n, capacity):
        crash_dir = tmp_path / "crashed"
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from test_service_store import _crash_child; "
                f"_crash_child({str(crash_dir)!r}, {n}, {capacity})",
            ],
            cwd=str(Path(__file__).parent),
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
            },
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            assert line.strip() == "READY", f"child failed: {line!r}"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)

        # The uncrashed reference run, same deterministic stream.
        with TemporalStore(tmp_path / "reference",
                           config=small_blocks(capacity)) as reference:
            reference.load_dataset(fixture_graph())
            apply_stream(reference, update_stream(n))
            expected = result_fingerprint(reference)
            expected_revision = reference.revision
            expected_size = reference.engine.sizeof()

        with TemporalStore(crash_dir) as recovered:
            assert recovered.revision == expected_revision
            assert result_fingerprint(recovered) == expected
            # The recovered trees still know they are compressed: the
            # replayed splits created their leaves packed.
            assert recovered.engine.sizeof() == expected_size
            for tree in recovered.storage_report()["indexes"].values():
                assert tree["packed"] and tree["plain_leaves"] == 0
                assert capacity is None or tree["sealed_leaves"] > 0
            # The recovered store accepts further updates.
            recovered.insert("after", "the", "crash", D("01/01/2020"))

    def test_recovery_skips_records_already_in_snapshot(self, tmp_path):
        # Simulate a crash *between* snapshot rename and WAL truncation:
        # the WAL still holds records the snapshot already contains.
        with TemporalStore(tmp_path, group_size=1) as store:
            store.load_dataset(fixture_graph())
            store.insert("a", "b", "c", D("01/01/2016"))
            store.insert("d", "e", "f", D("01/02/2016"))
            wal_with_records = store.wal_path.read_bytes()
            store.checkpoint()  # snapshot now includes both records
            store.wal_path.write_bytes(wal_with_records)  # un-truncate
        with TemporalStore(tmp_path) as store:
            assert store.revision == 2
            # No double-apply: each fact matched exactly once.
            assert len(store.query("SELECT ?o {a b ?o ?t}").rows) == 1
            assert store.live_facts == 5  # 3 fixture live + 2 inserted


class TestConcurrency:
    def test_concurrent_readers_during_write_burst(self, tmp_path):
        with TemporalStore(tmp_path, group_size=8) as store:
            store.load_dataset(fixture_graph())
            stop = threading.Event()
            errors = []
            revisions = []

            def reader():
                while not stop.is_set():
                    try:
                        result = store.query(
                            "SELECT ?s {?s member Senate ?t}"
                        )
                        revisions.append(result.revision)
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)
                        return

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            try:
                apply_stream(store, update_stream(60))
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=30)
            assert errors == []
            # Readers observed monotonically growing revisions overall.
            assert revisions
            assert max(revisions) <= store.revision

    def test_revision_pins_to_read_epoch(self, tmp_path):
        with TemporalStore(tmp_path) as store:
            store.load_dataset(fixture_graph())
            r1 = store.query(QUERIES[0]).revision
            store.insert("x", "y", "z", D("01/01/2016"))
            r2 = store.query(QUERIES[0]).revision
            assert (r1, r2) == (0, 1)


class TestFiles:
    def test_store_directory_layout(self, tmp_path):
        with TemporalStore(tmp_path) as store:
            store.load_dataset(fixture_graph())
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["store.snap", "store.wal"]
        assert (tmp_path / "store.wal").read_bytes() == WAL_MAGIC


def tree_shape(engine):
    """What the bulk-load path decides about an engine's indexes."""
    return {
        "sizeof": engine.sizeof(),
        "leaves": {name: sum(1 for _ in tree.leaf_nodes())
                   for name, tree in engine.indexes.items()},
        "history": engine.history_rows(),
    }


class TestBulkLoad:
    """A store's bulk load builds the tree ``RDFTX.from_graph`` builds:
    plain replays, compressed once.  It used to replay into the packed
    trees the store's empty initial load left behind, one packed append
    or re-encode per event, and end with a different tree."""

    @pytest.fixture(scope="class")
    def wiki(self):
        return wikipedia.generate(2000, seed=7).graph

    def test_load_dataset_builds_the_from_graph_tree(self, tmp_path, wiki):
        reference = RDFTX.from_graph(wiki, optimizer=Optimizer())
        with TemporalStore(tmp_path, fsync=False) as store:
            store.load_dataset(wiki)
            store.engine.check_invariants()
            assert tree_shape(store.engine) == tree_shape(reference)
            histogram = store.engine.optimizer.statistics.histogram
            assert histogram.cm == reference.optimizer.statistics.histogram.cm

    def test_load_dataset_keeps_the_store_settings(self, tmp_path):
        config = small_blocks(8)
        with TemporalStore(tmp_path, config=config,
                           use_optimizer=False) as store:
            store.load_dataset(fixture_graph())
            assert store.engine.config is config
            assert store.engine.optimizer is None
            assert result_fingerprint(store)[0]

    def test_cluster_shard_holds_the_from_graph_tree(self, tmp_path, wiki):
        from repro.cluster import ClusterStore

        with ClusterStore(tmp_path, shards=2, fsync=False) as cluster:
            cluster.load_dataset(wiki)
            parts = cluster.planner.partition(wiki)
        for shard, rows in enumerate(parts):
            part = TemporalGraph()
            for subject, predicate, object_, start, end in rows:
                part.add(subject, predicate, object_, start,
                         NOW if end is None else end)
            reference = RDFTX.from_graph(part, optimizer=Optimizer())
            with TemporalStore(tmp_path / f"shard-{shard}") as store:
                store.engine.check_invariants()
                assert tree_shape(store.engine) == tree_shape(reference)
