"""End-to-end cluster tests: correctness, routing, replication, failover.

These boot real worker processes, so topologies stay small and the
dataset tiny; the properties under test — byte-identical results across
topologies, watermark monotonicity, replica promotion — do not depend
on scale.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import io as tio
from repro.cluster import ClusterStore, protocol, shard_of
from repro.cluster.client import ShardClient
from repro.cluster.executor import canonical_sort
from repro.datasets.queries import (
    complex_queries,
    join_queries,
    selection_queries,
)
from repro.model.time import encode_value
from repro.mvbt.tree import DuplicateKeyError, TimeOrderError
from repro.obs import events
from repro.service.store import StoreError, TemporalStore

GOLDEN = Path(__file__).parent / "golden" / "cluster_fig9.json"
#: The pinned dataset the golden answers were computed on.  Committed as
#: a file (not regenerated from the synthetic generator) because the
#: generator's output depends on string-hash iteration order, which
#: varies per process with PYTHONHASHSEED.
GOLDEN_DATASET = Path(__file__).parent / "golden" / "cluster_fig9.tnq"


@pytest.fixture(scope="module")
def graph():
    return tio.load_graph(str(GOLDEN_DATASET))


@pytest.fixture(scope="module")
def query_mix(graph):
    """A small fig9-style mix: selection + join + complex shapes."""
    by_count = complex_queries(graph, seed=3)
    return (selection_queries(graph, 4, seed=1)
            + join_queries(graph, 4, seed=2)
            + by_count[3][:2] + by_count[4][:2])


def _serialize(result) -> dict:
    """The byte-identity form: canonical row order, JSON-encoded values."""
    return {
        "variables": result.variables,
        "rows": [
            [encode_value(row.get(name)) for name in result.variables]
            for row in result.rows
        ],
    }


def _subject_on_shard(shard: int, shards: int, start: int = 0) -> str:
    return next(
        f"subj{i}" for i in range(start, start + 10_000)
        if shard_of(f"subj{i}", shards) == shard
    )


class TestClusterCorrectness:
    def test_matches_single_engine(self, tmp_path, graph, query_mix):
        single = TemporalStore(tmp_path / "single", query_cache_size=None)
        single.load_dataset(graph)
        expected = {}
        for text in query_mix:
            result = single.query(text)
            expected[text] = {
                "variables": result.variables,
                "rows": [
                    [encode_value(row.get(name))
                     for name in result.variables]
                    for row in canonical_sort(
                        result.rows, result.variables
                    )
                ],
            }
        single.close()

        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            cluster.load_dataset(graph)
            for text in query_mix:
                got = _serialize(cluster.query(text))
                assert got == expected[text], text

    def test_golden_one_vs_four_shards(self, tmp_path, graph, query_mix):
        """1-shard and 4-shard deployments byte-match the golden file.

        The golden file pins the canonical serialization, so a change in
        sort order, value encoding, or distributed-join semantics shows
        up as a diff here rather than as silent cross-topology drift.
        """
        golden = json.loads(GOLDEN.read_text())
        assert list(golden) == query_mix, (
            "query mix changed; regenerate tests/golden/cluster_fig9.json"
        )
        for shards in (1, 4):
            with ClusterStore(tmp_path / f"s{shards}", shards=shards,
                              fsync=False) as cluster:
                cluster.load_dataset(graph)
                for text in query_mix:
                    got = _serialize(cluster.query(text))
                    assert got == golden[text], (shards, text)


    def test_a_pattern_without_variables_scatters(self, tmp_path):
        """SELECT names a variable, so the sub-query of a fact-at-a-date
        pattern asks for the date as a restriction; only whether the fact
        held then joins in."""
        owner = _subject_on_shard(0, 2)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            for shard in range(2):
                cluster.insert(_subject_on_shard(shard, 2, start=100), "q",
                               "y", 1000 + shard)
            cluster.insert(owner, "p", "o", 1002)
            cluster.delete(owner, "p", "o", 1004)
            for date, held in [("1972-09-30", True), ("1972-10-01", False)]:
                result = cluster.query(
                    f"SELECT ?x {{{owner} p o {date} . ?x q ?y ?t}}")
                assert len(result.rows) == (2 if held else 0), date


    def test_a_variable_subject_star_runs_whole_on_each_shard(
            self, tmp_path):
        """A star whose subject is a variable is one RPC per shard, no
        scatter; a chain through an object still scatters."""
        from repro.obs import metrics

        names = ("star_queries", "single_shard", "scatter_scans")
        counters = [metrics.counter(f"cluster.coordinator.{name}")
                    for name in names]
        s0 = _subject_on_shard(0, 2)
        s1 = _subject_on_shard(1, 2, start=100)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            cluster.insert(s0, "p", s1, 1000)
            cluster.insert(s0, "q", "a", 1001)
            cluster.insert(s1, "p", "b", 1002)
            cluster.insert(s1, "q", "a", 1003)
            moved = []
            for text in ["SELECT ?o {?s p ?x ?t . ?s q ?o ?t2}",
                         "SELECT ?o {?s p ?x ?t . ?x q ?o ?t2}"]:
                before = [c.value for c in counters]
                assert cluster.query(text).rows == [{"o": "a"}], text
                moved.append([c.value - b for c, b in zip(counters, before)])
        if metrics.ENABLED:
            # the chain: pattern p on both shards, pattern q on both
            assert moved == [[1, 0, 0], [0, 0, 4]]


class TestClusterUpdates:
    def test_routing_watermark_and_conflicts(self, tmp_path):
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            s0 = _subject_on_shard(0, 2)
            s1 = _subject_on_shard(1, 2, start=10_000)
            assert cluster.insert(s0, "p", "a", 1000) == 1
            assert cluster.insert(s1, "p", "b", 1001) == 2
            assert cluster.revision == 2
            # each shard applied exactly one record
            status = cluster.cluster_status()
            lsns = sorted(m["primary"]["applied_lsn"]
                          for m in status["members"])
            assert lsns == [1, 1]
            assert status["watermark"] == 2
            # reads see both, regardless of owning shard
            result = cluster.query("SELECT ?s ?o {?s p ?o ?t}")
            assert [(r["s"], r["o"]) for r in result.rows] == sorted(
                [(s0, "a"), (s1, "b")]
            )
            assert result.revision == 2

            with pytest.raises(DuplicateKeyError):
                cluster.insert(s0, "p", "a", 1005)
            # cross-shard time order: s1's shard would accept 900
            # locally, but the cluster watermark is already at 1001.
            with pytest.raises(TimeOrderError):
                cluster.insert(s1, "q", "c", 900)
            assert cluster.revision == 2

    def test_restart_preserves_predicate_routing(self, tmp_path):
        """A restarted coordinator must not let its first write of a
        predicate shadow pre-existing triples of that predicate living
        on other shards (the predicate map is rebuilt from shard-side
        inventories at bootstrap)."""
        s0 = _subject_on_shard(0, 2)
        s1 = _subject_on_shard(1, 2, start=10_000)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            cluster.insert(s0, "p", "a", 1000)
            cluster.insert(s1, "p", "b", 1001)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            # the poisoning write: predicate "p" observed on shard 0
            # only — routing must still consult shard 1
            cluster.insert(s0, "p", "x", 2000)
            result = cluster.query("SELECT ?s ?o {?s p ?o ?t}")
            assert sorted((r["s"], r["o"]) for r in result.rows) == sorted(
                [(s0, "a"), (s1, "b"), (s0, "x")]
            )

    def test_parsed_union_query_matches_text(self, tmp_path):
        """A pre-parsed UNION/OPTIONAL query is rendered back to text at
        entry, so one whose subjects are one constant is forwarded whole
        to that subject's shard, exactly as its text is."""
        from repro.obs import metrics
        from repro.sparqlt.parser import parse

        subject = _subject_on_shard(1, 2)
        single = metrics.counter("cluster.coordinator.single_shard")
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            cluster.insert(subject, "president", "carol", 1000)
            cluster.insert(subject, "chancellor", "santa", 1001)
            cluster.insert(subject, "motto", "lux", 1002)
            text = (f"SELECT ?who ?m {{ {{{subject} president ?who ?t}} "
                    f"UNION {{{subject} chancellor ?who ?t}} "
                    f"OPTIONAL {{{subject} motto ?m ?t2}} }}")
            forwarded = single.value
            via_text = _serialize(cluster.query(text))
            via_object = _serialize(cluster.query(parse(text)))
            assert via_object == via_text
            assert via_object["rows"] == [["carol", "lux"], ["santa", "lux"]]
            if metrics.ENABLED:
                assert single.value - forwarded == 2

    def test_delete_and_readback(self, tmp_path):
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            subject = _subject_on_shard(1, 2)
            cluster.insert(subject, "p", "v", 1000)
            cluster.delete(subject, "p", "v", 1500)
            result = cluster.query(
                f"SELECT ?o ?t {{{subject} p ?o ?t}}"
            )
            assert len(result.rows) == 1
            periods = list(result.rows[0]["t"])
            assert periods[0].start == 1000
            assert periods[0].end == 1500


class TestShardResultCache:
    """A shard caches every read by its text, scatter sub-queries too."""

    @staticmethod
    def _cache_hits(cluster) -> int:
        replies = [member.primary.rpc(protocol.Metrics())
                   for member in cluster._membership.members]
        if not all(reply.enabled for reply in replies):
            pytest.skip("counters are off (REPRO_OBS=0)")
        return sum(reply.metrics["counters"].get("service.cache.hits", 0)
                   for reply in replies)

    def test_a_repeated_scatter_query_is_a_shard_cache_hit(self, tmp_path):
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            for shard in range(2):
                subject = _subject_on_shard(shard, 2)
                target = _subject_on_shard(shard, 2, start=100)
                cluster.insert(subject, "p", target, 1000 + 2 * shard)
                cluster.insert(target, "q", f"m{shard}", 1001 + 2 * shard)
            # a chain through the object: no shard answers it alone
            text = "SELECT ?s ?o ?m {?s p ?o ?t . ?o q ?m ?t2}"
            before = self._cache_hits(cluster)
            first = _serialize(cluster.query(text))
            missed = self._cache_hits(cluster)
            second = _serialize(cluster.query(text))
            # two sub-queries (one per pattern), each asked of both shards
            assert (missed - before, self._cache_hits(cluster) - missed) == (
                0, 4)
            assert second == first and len(first["rows"]) == 2

    @pytest.mark.parametrize("forwarded", [True, False],
                             ids=["forwarded", "scattered"])
    def test_a_write_on_another_shard_moves_the_horizon_under_cached_results(
            self, tmp_path, forwarded):
        """A live fact from 1972-09-27 has a December once the cluster's
        horizon passes it, which a write on the other shard does without
        any write on the fact's own shard."""
        owner = _subject_on_shard(0, 2)
        other = _subject_on_shard(1, 2)
        text = (f"SELECT ?o {{{owner} p ?o ?t FILTER(MONTH(?t) = 12)}}"
                if forwarded else
                "SELECT ?o {?s p ?o ?t . ?o q ?r ?t2 FILTER(MONTH(?t) = 12)}")
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            cluster.insert(owner, "p", other, 1000)
            cluster.insert(other, "q", "r", 1001)
            assert cluster.query(text).rows == []
            cluster.insert(other, "q", "z", 1100)
            assert cluster.query(text).rows == [{"o": other}]


class TestClusterFailover:
    def test_sigkill_promotes_replica_and_preserves_results(
        self, tmp_path, graph, query_mix
    ):
        with ClusterStore(tmp_path / "clu", shards=2, replicas=1,
                          fsync=False) as cluster:
            cluster.load_dataset(graph)
            # live writes so the replica has WAL-shipped state too
            for index in range(5):
                cluster.insert(f"live{index}", "liveness", "yes",
                               20_000 + index)
            before = [_serialize(cluster.query(t)) for t in query_mix]

            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status = cluster.cluster_status()
                if all(
                    replica["alive"] and replica["applied_lsn"]
                    == member["primary"]["applied_lsn"]
                    for member in status["members"]
                    for replica in member["replicas"]
                ):
                    break
                time.sleep(0.1)

            victim = cluster._membership.members[0].primary
            os.kill(victim.pid, signal.SIGKILL)
            time.sleep(0.3)

            # reads survive (served by the replica or the live shard)
            after = [_serialize(cluster.query(t)) for t in query_mix]
            assert after == before

            # a write owned by the dead shard forces the promotion
            subject = _subject_on_shard(0, 2, start=50_000)
            cluster.insert(subject, "post_failover", "ok", 30_000)
            status = cluster.cluster_status()
            member = status["members"][0]
            assert member["primary"]["alive"]
            assert member["primary"]["pid"] != victim.pid
            assert member["replicas"] == []

            # the promoted primary serves the full pre-kill state
            final = [_serialize(cluster.query(t)) for t in query_mix]
            assert final == before
            result = cluster.query(
                f"SELECT ?o {{{subject} post_failover ?o ?t}}"
            )
            assert [r["o"] for r in result.rows] == ["ok"]

            # the event log recorded the failover and the promotion
            names = [e["event"] for e in cluster.cluster_events()]
            assert "cluster.event.failover" in names
            assert "cluster.event.promoted" in names


    def test_failover_retry_of_committed_write_is_idempotent(
        self, tmp_path
    ):
        """A write the primary applied and shipped — but never
        acknowledged — must not surface as a conflict when retried on
        the promoted replica."""
        with ClusterStore(tmp_path / "clu", shards=1, replicas=1,
                          fsync=False) as cluster:
            member = cluster._membership.members[0]
            subject = _subject_on_shard(0, 1)
            # Simulate the applied-but-unacknowledged state: write
            # straight to the primary, bypassing the coordinator's
            # bookkeeping (acked_lsn stays 0).
            member.primary.rpc(protocol.Update(
                update="insert", subject=subject, predicate="p",
                object="v", time=1000,
            ))
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if member.replicas[0].rpc(
                    protocol.Status()
                ).revision >= 1:
                    break
                time.sleep(0.05)
            os.kill(member.primary.pid, signal.SIGKILL)
            time.sleep(0.2)
            # The coordinator-level retry of the "same" write: failover
            # promotes the replica, the retry conflicts there, and the
            # promoted WAL proves the write committed.
            assert cluster.insert(subject, "p", "v", 1000) == 1
            assert member.acked_lsn == 1
            result = cluster.query(f"SELECT ?o {{{subject} p ?o ?t}}")
            assert [r["o"] for r in result.rows] == ["v"]

    def test_failover_is_noop_when_primary_already_replaced(
        self, tmp_path
    ):
        """The double-check: a thread that lost the failover race must
        not close the freshly promoted primary or consume a replica."""
        with ClusterStore(tmp_path / "clu", shards=1, replicas=1,
                          fsync=False) as cluster:
            member = cluster._membership.members[0]
            primary, replicas = member.primary, list(member.replicas)
            stale = object()  # what a losing thread would still hold
            cluster._membership.failover(
                member, stale, OSError("stale view"))
            assert member.primary is primary
            assert member.primary.alive
            assert member.replicas == replicas


class TestClusterMaintenance:
    def test_refresh_statistics_uses_stats_op_not_checkpoint(
        self, tmp_path
    ):
        from repro.service.wal import read_records

        with ClusterStore(tmp_path / "clu", shards=1,
                          fsync=False) as cluster:
            cluster.insert("a", "p", "v", 1000)
            cluster.insert("a", "q", "w", 1001)
            refreshed = cluster.refresh_statistics()
            assert isinstance(refreshed, bool)
            # a checkpoint would have truncated the primary's WAL
            wal = cluster._membership.members[0].primary.directory \
                / TemporalStore.WAL_NAME
            assert len(read_records(wal)) == 2


    def test_replica_wait_is_bounded_by_the_clock_not_by_sleeps(self):
        """A replica whose status RPC is slow used to stretch the wait:
        only the 50 ms sleeps counted towards the bound."""
        from repro.cluster.membership import Member

        class _SlowReplica:
            calls = 0

            def rpc(self, request, timeout=None):
                self.calls += 1
                time.sleep(0.1)
                return protocol.StatusReply(
                    role="replica", shard_id=0, revision=0, live_facts=0,
                    horizon=1, pid=0, lag_seconds=None)

        member, replica = Member(0, primary=None), _SlowReplica()
        member.acked_lsn = 1  # never reached
        started = time.monotonic()
        ClusterStore._wait_for_replica(None, member, replica, timeout=0.3)
        assert time.monotonic() - started < 0.6
        assert replica.calls <= 3


class TestClusterLoad:
    """``load_dataset`` loads every shard at once: one thread per member,
    all joined before the replicas resync or an error surfaces."""

    @staticmethod
    def _log_rpcs(monkeypatch, fail_shard=None):
        """Log every client RPC's start and end; loads wait for each other
        at a two-party barrier, which only opens if both are in flight."""
        log = []
        barrier = threading.Barrier(2)
        rpc = ShardClient.rpc

        def logged(self, request, timeout=None):
            op = request.op
            log.append(("start", op))
            try:
                if op == "load":
                    barrier.wait(timeout=10)
                    if self.directory.name == fail_shard:
                        raise StoreError("load refused")
                    time.sleep(0.05)  # the failure wins the race
                return rpc(self, request, timeout)
            finally:
                log.append(("end", op))

        monkeypatch.setattr(ShardClient, "rpc", logged)
        return log

    def test_loads_overlap_and_finish_before_the_resync(
        self, tmp_path, graph, query_mix, monkeypatch
    ):
        with ClusterStore(tmp_path / "clu", shards=2, replicas=1,
                          fsync=False) as cluster:
            log = self._log_rpcs(monkeypatch)
            cluster.load_dataset(graph)
            assert log.count(("end", "load")) == 2
            assert log.count(("start", "resync")) == 2
            last_load = max(
                i for i, e in enumerate(log) if e == ("end", "load"))
            assert last_load < log.index(("start", "resync"))
            assert len(cluster.query(query_mix[0]).rows) > 0

    def test_a_load_asks_for_status_and_no_predicate_inventory(
        self, tmp_path, graph, query_mix, monkeypatch
    ):
        """The partition completes the predicate map, so a load re-reads
        each primary's status only; the inventory a restart would rebuild
        the map from names the same shards."""
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            log = self._log_rpcs(monkeypatch)
            cluster.load_dataset(graph)
            started = [op for edge, op in log if edge == "start"]
            assert "predicates" not in started
            assert started.count("status") == 2
            assert cluster.revision == 0
            loaded = cluster.planner.predicate_map
            assert cluster.planner.predicate_map_complete and loaded
            cluster._bootstrap_watermarks()
            assert cluster.planner.predicate_map == loaded
            assert len(cluster.query(query_mix[0]).rows) > 0

    def test_first_error_is_raised_after_every_load_was_joined(
        self, tmp_path, graph, monkeypatch
    ):
        from repro.service.store import StoreError

        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            log = self._log_rpcs(monkeypatch, fail_shard="shard-0")
            with pytest.raises(StoreError, match="load refused"):
                cluster.load_dataset(graph)
            # shard 1's load ran to completion before the error surfaced
            assert log.count(("end", "load")) == 2
            assert cluster._membership.members[1].primary.rpc(
                protocol.Status()).live_facts > 0


def _walk_spans(span):
    yield span
    for child in span.children:
        yield from _walk_spans(child)


class TestClusterObservability:
    def test_scatter_query_yields_one_stitched_trace(self, tmp_path):
        """A traced query asked of both shards returns a single span tree
        holding
        worker-side spans from at least two distinct processes, each
        annotated with shard_id/role/pid, with a per-hop clock-skew
        estimate on the grafting cluster.rpc span."""
        from repro.obs import trace as _trace

        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            s0 = _subject_on_shard(0, 2)
            s1 = _subject_on_shard(1, 2, start=10_000)
            cluster.insert(s0, "p", "a", 1000)
            cluster.insert(s1, "p", "b", 1001)
            with _trace.start_trace("test.scatter") as trace:
                result = cluster.query("SELECT ?s ?o {?s p ?o ?t}")
            assert len(result.rows) == 2

        spans = list(_walk_spans(trace.root))
        remote = [
            s for s in spans
            if "pid" in s.attrs and "role" in s.attrs
            and "shard_id" in s.attrs
        ]
        pids = {s.attrs["pid"] for s in remote}
        assert len(pids) >= 2, "worker spans from two processes expected"
        assert os.getpid() not in pids
        assert {s.attrs["shard_id"] for s in remote} == {0, 1}
        assert all(s.attrs["role"] == "shard" for s in remote)
        assert all("remote_trace_id" in s.attrs for s in remote)
        # remote spans graft under the coordinator's cluster.rpc spans,
        # which carry the per-hop clock-skew/network estimates.
        stitched = [s for s in spans if "clock_skew_ms" in s.attrs]
        assert stitched
        assert all(s.name == "cluster.rpc" for s in stitched)
        assert all("net_ms" in s.attrs for s in stitched)
        # shifted worker spans stay inside the coordinator trace's
        # lifetime (the skew correction anchors them sanely).
        root_end = trace.root.end_ms
        for span in remote:
            assert -1000.0 < span.start_ms < root_end + 1000.0

    def test_untraced_rpc_carries_no_attachment(self, tmp_path):
        """Without a live coordinator trace the request has no trace_id
        and the response envelope must not grow a trace attachment."""
        with ClusterStore(tmp_path / "clu", shards=1,
                          fsync=False) as cluster:
            member = cluster._membership.members[0]
            assert member.primary.rpc(protocol.Status()).trace is None

    def test_federated_metrics_members_groups_and_lag(self, tmp_path):
        with ClusterStore(tmp_path / "clu", shards=2, replicas=1,
                          fsync=False) as cluster:
            s0 = _subject_on_shard(0, 2)
            s1 = _subject_on_shard(1, 2, start=10_000)
            cluster.insert(s0, "p", "a", 1000)
            cluster.insert(s1, "p", "b", 1001)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status = cluster.cluster_status()
                if all(
                    replica["alive"] and replica["applied_lsn"]
                    == member["primary"]["applied_lsn"]
                    for member in status["members"]
                    for replica in member["replicas"]
                ):
                    break
                time.sleep(0.1)

            federated = cluster.federated_metrics(force=True)
            assert federated["scope"] == "cluster"
            assert federated["watermark"] == 2

            members = federated["members"]
            assert members[0]["role"] == "coordinator"
            roles = sorted(m["role"] for m in members)
            assert roles == ["coordinator", "replica", "replica",
                             "shard", "shard"]
            for entry in members[1:]:
                assert entry["alive"], entry
                assert entry["enabled"], entry
            replicas = [m for m in members if m["role"] == "replica"]
            for entry in replicas:
                assert entry["lag_lsn"] == 0
                lag_seconds = entry["lag_seconds"]
                assert lag_seconds is None or 0.0 <= lag_seconds < 60.0

            groups = {
                tuple(sorted(g["labels"].items())): g
                for g in federated["groups"]
            }
            for shard in (0, 1):
                merged = groups[(("role", "shard"),
                                 ("shard", str(shard)))]["metrics"]
                assert merged["counters"]["cluster.worker.requests"] > 0

            # pulls within max_age are served from the cache
            assert cluster.federated_metrics() is federated
            assert cluster.federated_metrics(force=True) is not federated

    def test_cluster_status_reports_replica_lag(self, tmp_path):
        with ClusterStore(tmp_path / "clu", shards=1, replicas=1,
                          fsync=False) as cluster:
            subject = _subject_on_shard(0, 1)
            cluster.insert(subject, "p", "v", 1000)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status = cluster.cluster_status()
                replica = status["members"][0]["replicas"][0]
                if replica["alive"] and replica["applied_lsn"] == 1:
                    break
                time.sleep(0.05)
            assert replica["lag_lsn"] == 0
            assert (replica["lag_seconds"] is None
                    or replica["lag_seconds"] >= 0.0)

    def test_op_metrics_disabled_reports_empty(self):
        """REPRO_OBS=0 workers answer the metrics op with enabled=false
        and an empty snapshot, never frozen pre-disable series."""
        from repro.cluster import worker as cluster_worker
        from repro.obs import metrics

        class _Store:
            revision = 7

        class _State:
            role = "shard"
            store = _Store()

        metrics.set_enabled(False)
        try:
            response = cluster_worker._op_metrics(
                _State(), protocol.Metrics())
        finally:
            metrics.set_enabled(True)
        assert protocol.to_wire(response) == {
            "ok": True, "enabled": False, "metrics": {},
            "role": "shard", "revision": 7, "lag_seconds": None,
        }


def _started_pids() -> list[int]:
    return [e["pid"] for e in events.EVENTS.recent(100)
            if e["event"] == "cluster.event.worker_started"]


def _assert_reaped(pids: list[int]) -> None:
    """Every pid was one of our children and has been waited for: a
    worker still running, or exited but unreaped, fails here."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


#: A coordinator script with no ``__main__`` guard: it marks each time
#: its top level runs, brings a 2-shard cluster up, and prints the
#: worker pids.  With a third argument it then waits to be killed.
UNGUARDED_SCRIPT = """
import sys, time
from repro.cluster import ClusterStore
from repro.obs import events

with open(sys.argv[2], "a") as marker:
    marker.write("top level ran\\n")
store = ClusterStore(sys.argv[1], shards=2, fsync=False)
store.insert("a", "p", "v", 1000)
assert store.query("SELECT ?o {a p ?o ?t}").rows == [{"o": "v"}]
print(*[e["pid"] for e in events.EVENTS.recent(100)
        if e["event"] == "cluster.event.worker_started"], flush=True)
if len(sys.argv) > 3:
    time.sleep(600)
store.close()
"""


def _script_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") or k == "REPRO_LOCK_SANITIZER"}
    env.update(REPRO_OBS="1", PYTHONPATH=str(
        Path(__file__).resolve().parent.parent / "src"))
    return env


class TestClusterBringUp:
    def test_dead_worker_fails_at_once_and_nothing_is_left_running(
            self, tmp_path):
        """A worker that dies at store open closes its ready pipe, which
        is noticed at once, not by waiting out ``START_TIMEOUT``; the
        constructor raises naming the shard and stops the other worker,
        which did come up."""
        directory = tmp_path / "clu"
        directory.mkdir()
        (directory / "shard-1").write_text("not a directory")
        events.EVENTS.clear()
        started = time.monotonic()
        with pytest.raises(StoreError, match=r"shard 1 \(shard\) died"):
            ClusterStore(directory, shards=2, fsync=False)
        assert time.monotonic() - started < 20.0
        _assert_reaped(_started_pids())

    @pytest.mark.parametrize("launch", ["file", "stdin"])
    def test_unguarded_script_runs_its_top_level_once(self, tmp_path,
                                                      launch):
        """Workers never re-run the launching script: one without an
        ``if __name__ == "__main__":`` guard, even one read from stdin,
        brings its cluster up and marks its top level exactly once."""
        marker = tmp_path / "marker.txt"
        args = [str(tmp_path / "clu"), str(marker)]
        if launch == "file":
            script = tmp_path / "coordinator.py"
            script.write_text(UNGUARDED_SCRIPT)
            command, stdin = [sys.executable, str(script), *args], None
        else:
            command, stdin = [sys.executable, "-", *args], UNGUARDED_SCRIPT
        done = subprocess.run(command, input=stdin, env=_script_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.split()) == 2
        assert marker.read_text().splitlines() == ["top level ran"]

    def test_killed_coordinator_leaves_no_worker_running(self, tmp_path):
        """SIGKILL runs no exit hook in the coordinator, but it closes
        every worker's lifeline: each worker sees EOF on stdin and
        exits, instead of holding its directory, WAL and port."""
        script = tmp_path / "coordinator.py"
        script.write_text(UNGUARDED_SCRIPT)
        coordinator = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path / "clu"),
             str(tmp_path / "marker.txt"), "wait"],
            stdout=subprocess.PIPE, text=True, env=_script_env(),
        )
        try:
            pids = [int(pid) for pid in coordinator.stdout.readline().split()]
        finally:
            coordinator.kill()
            coordinator.wait()
            coordinator.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while (any(map(_running, pids))
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert [pid for pid in pids if _running(pid)] == []

    def test_failed_bootstrap_stops_every_worker(self, tmp_path,
                                                 monkeypatch):
        real_rpc = ShardClient.rpc

        def rpc(self, request, timeout=None):
            if isinstance(request, protocol.Predicates):
                raise StoreError("inventory unavailable")
            return real_rpc(self, request, timeout=timeout)

        monkeypatch.setattr(ShardClient, "rpc", rpc)
        events.EVENTS.clear()
        with pytest.raises(StoreError, match="inventory unavailable"):
            ClusterStore(tmp_path / "clu", shards=2, replicas=1,
                         fsync=False)
        _assert_reaped(_started_pids())

    def test_bringup_span_attributes_each_worker(self, tmp_path):
        """``cluster.bringup`` holds one ``cluster.worker.ready`` child
        per worker; on a restart over existing directories the children
        report what recovery replayed."""
        from repro.obs import trace as _trace

        def bring_up():
            with _trace.start_trace("test.bringup") as trace:
                cluster = ClusterStore(tmp_path / "clu", shards=2,
                                       replicas=1, fsync=False)
            (bringup,) = [s for s in _walk_spans(trace.root)
                          if s.name == "cluster.bringup"]
            assert bringup.attrs == {"shards": 2, "replicas": 1}
            ready = bringup.children
            assert [s.name for s in ready] == ["cluster.worker.ready"] * 4
            assert sorted((s.attrs["shard"], s.attrs["role"])
                          for s in ready) == [
                (0, "replica"), (0, "shard"), (1, "replica"), (1, "shard")]
            for span in ready:
                assert span.attrs["import_ms"] > 0
                assert span.attrs["open_ms"] > 0
                assert span.attrs["startup_ms"] >= (
                    span.attrs["import_ms"] + span.attrs["open_ms"])
            return cluster, ready

        cluster, ready = bring_up()
        with cluster:
            assert all(s.attrs["replayed"] == 0 for s in ready)
            for i in range(6):
                cluster.insert(f"subj{i}", "p", "v", 1000 + i)
            watermark = cluster.revision
        cluster, ready = bring_up()
        with cluster:
            assert cluster.revision == watermark
            assert sum(s.attrs["replayed"] for s in ready
                       if s.attrs["role"] == "shard") == 6


class TestClusterReporting:
    def test_status_shape_and_storage_report(self, tmp_path):
        with ClusterStore(tmp_path / "clu", shards=2, replicas=1,
                          fsync=False) as cluster:
            cluster.insert("a", "p", "v", 1000)
            status = cluster.cluster_status()
            assert status["shards"] == 2
            assert status["replicas_per_shard"] == 1
            assert len(status["members"]) == 2
            for member in status["members"]:
                assert member["primary"]["role"] == "shard"
                assert member["primary"]["alive"]
                assert len(member["replicas"]) == 1
            assert cluster.storage_report()["cluster"]["shards"] == 2
            assert cluster.live_facts == 1

    def test_status_survives_a_member_answering_with_an_error(
            self, tmp_path, monkeypatch):
        """One ``internal`` answer used to take down ``/debug/storage``;
        it is an ``alive: false`` entry, as in the metrics pull."""
        real_rpc = ShardClient.rpc

        def rpc(self, request, timeout=None):
            if (isinstance(request, protocol.Status)
                    and self.directory.name == "shard-1"):
                raise StoreError("disk on fire")
            return real_rpc(self, request, timeout=timeout)

        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            sick = cluster._membership.members[1].primary
            monkeypatch.setattr(ShardClient, "rpc", rpc)
            healthy, failing = cluster.storage_report()["cluster"]["members"]
            monkeypatch.undo()
            assert healthy["primary"]["alive"]
            assert failing["primary"] == {
                "role": "shard", "pid": sick.pid, "alive": False,
                "error": "disk on fire",
            }
