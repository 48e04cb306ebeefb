"""End-to-end cluster tests: correctness, routing, a dead shard, reopen.

These boot real worker processes, so topologies stay small and the
dataset tiny; the properties under test — byte-identical results across
topologies, watermark monotonicity, recovery by reopening — do not depend
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
from repro.cluster.membership import ShardDown
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
        """SELECT names a variable, so the star of a fact at a date selects
        an unbound one; only whether the fact held then joins in."""
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
        """A star whose subject is a variable is one RPC per shard; a
        chain through an object joins its two stars, each asked of both
        shards."""
        from repro.obs import metrics

        names = ("star_queries", "single_shard", "star_requests")
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
            # the chain: star ?s on both shards, star ?x on both
            assert moved == [[1, 0, 0], [0, 0, 4]]


class TestStarJoin:
    """A query of several subject stars: one sub-query per star, asked of
    each shard the star can live on, joined at the coordinator."""

    CHAIN = "SELECT ?a ?c ?d {?a p ?b ?t . ?b q ?c ?t2 . ?b r ?d ?t3}"

    @staticmethod
    def _two_way_chain(cluster) -> tuple[str, str]:
        """``s0 p s1``, ``s1 p s0`` and ``q``/``r`` facts on both: every
        predicate lives on both shards, so no star is pruned."""
        s0 = _subject_on_shard(0, 2)
        s1 = _subject_on_shard(1, 2, start=100)
        day = 1000
        for subject, target in [(s0, s1), (s1, s0)]:
            cluster.insert(subject, "p", target, day)
            cluster.insert(target, "q", f"c-{target}", day + 1)
            cluster.insert(target, "r", f"d-{target}", day + 2)
            day += 3
        return s0, s1

    def test_a_chain_asks_each_star_once_per_shard(self, tmp_path):
        """``?a p ?b . ?b q ?c . ?b r ?d`` is two stars: four RPCs on two
        shards, where a sub-query per pattern made six."""
        from repro.obs import metrics

        if not metrics.ENABLED:
            pytest.skip("counters are off (REPRO_OBS=0)")
        requests = metrics.counter("cluster.coordinator.star_requests")
        rpcs = metrics.histogram("cluster.coordinator.rpc_ms")
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            s0, s1 = self._two_way_chain(cluster)
            before = (requests.value, rpcs.count)
            rows = cluster.query(self.CHAIN).rows
            assert (requests.value - before[0], rpcs.count - before[1]) == (
                4, 4)
        assert rows == sorted(
            [{"a": s0, "c": f"c-{s1}", "d": f"d-{s1}"},
             {"a": s1, "c": f"c-{s0}", "d": f"d-{s0}"}],
            key=lambda row: row["a"])

    def test_star_joins_match_one_store(self, tmp_path):
        """Multi-star shapes, under UNION, OPTIONAL and FILTER, with a
        constant-subject star and one without variables, answer as one
        store holding the same facts does."""
        texts = [
            self.CHAIN,
            "SELECT ?a ?t {?a p ?b ?t . ?b q ?c ?t . "
            "FILTER(YEAR(?t) >= 1972)}",
            "SELECT ?a ?v {?a p ?b ?t . {?b q ?v ?t2} UNION {?b r ?v ?t2}}",
            "SELECT ?a ?d {?a p ?b ?t . OPTIONAL {?b r ?d ?t2 . ?d s ?e ?t3}}",
            "SELECT ?a ?c {?a p ?b ?t . ?b q ?c ?t2 . FILTER(?a != ?c)}",
        ]
        single = TemporalStore(tmp_path / "single", fsync=False)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            for store in (single, cluster):
                s0, s1 = self._two_way_chain(store)
                store.insert(f"d-{s1}", "s", "e", 1010)
            texts += [
                f"SELECT ?c {{{s0} p ?b ?t . ?b q ?c ?t2}}",
                f"SELECT ?c {{{s0} p {s1} 1972-09-29 . ?b q ?c ?t2 . "
                f"{s1} q c-{s1} 1972-09-29}}",
            ]
            for text in texts:
                expected = _serialize(single.query(text))
                expected["rows"].sort(key=json.dumps)
                assert _serialize(cluster.query(text)) == expected, text
        single.close()


def test_canonical_sort_orders_rows_as_their_json_text():
    """Spaces, quotes, escapes, non-ASCII, unbound slots and period sets:
    the tuple key sorts as ``json.dumps`` of the encoded row would."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.model.time import NOW, Period, PeriodSet

    periods = st.lists(
        st.tuples(st.integers(0, 3000), st.integers(1, 400),
                  st.booleans()),
        max_size=3,
    ).map(lambda spans: PeriodSet(
        Period(start, NOW if live else start + length)
        for start, length, live in spans))
    values = st.one_of(st.none(), st.text(max_size=6), periods)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(values, values), max_size=12))
    def check(pairs):
        rows = [{"x": x, "y": y} for x, y in pairs]
        by_text = sorted(rows, key=lambda row: json.dumps(
            [encode_value(row.get(name)) for name in ("x", "y")]))
        assert canonical_sort(rows, ["x", "y"]) == by_text

    check()


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

    def test_a_refused_delete_reads_as_the_stores(self, tmp_path):
        """A refusal crosses the wire with the store's own message: the
        cluster's KeyError carries the same args, not a quoted copy."""
        with TemporalStore(tmp_path / "one", fsync=False) as store, \
                ClusterStore(tmp_path / "clu", shards=2,
                             fsync=False) as cluster:
            refusals = []
            for target in (store, cluster):
                target.insert("s1", "p", "o", 1000)
                with pytest.raises(KeyError) as refused:
                    target.delete("s1", "ghost", "o", 1001)
                refusals.append(refused.value.args)
        assert refusals[1] == refusals[0] == (
            "fact not live: (s1, ghost, o)",)

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


class TestCoordinatorResultCache:
    """The coordinator caches every text answer, tagged with the watermark
    its read was pinned to; no shard keeps a result cache."""

    STAR = "SELECT ?s ?o {?s p ?o ?t}"
    # a chain through the object: no shard answers it alone
    CHAIN = "SELECT ?s ?o ?m {?s p ?o ?t . ?o q ?m ?t2}"

    @staticmethod
    def _counts() -> tuple[int, int]:
        """(shard RPCs the coordinator made, its result-cache hits)."""
        from repro.obs import metrics

        if not metrics.ENABLED:
            pytest.skip("counters are off (REPRO_OBS=0)")
        return (metrics.histogram("cluster.coordinator.rpc_ms").count,
                metrics.counter("service.cache.hits").value)

    def _delta(self, before: tuple[int, int]) -> tuple[int, int]:
        return tuple(now - then for now, then in zip(self._counts(), before))

    @staticmethod
    def _chain(cluster, shards: int) -> None:
        """On every shard, a ``p`` fact to a target with a ``q`` fact."""
        for shard in range(shards):
            subject = _subject_on_shard(shard, shards)
            target = _subject_on_shard(shard, shards, start=100)
            cluster.insert(subject, "p", target, 1000 + 2 * shard)
            cluster.insert(target, "q", f"m{shard}", 1001 + 2 * shard)

    @pytest.mark.parametrize("text", [STAR, CHAIN], ids=["star", "chain"])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_repeated_query_asks_no_shard(self, tmp_path, shards, text):
        self._counts()  # skips when counters are off
        with ClusterStore(tmp_path / "clu", shards=shards,
                          fsync=False) as cluster:
            self._chain(cluster, shards)
            first = _serialize(cluster.query(text))
            before = self._counts()
            second = _serialize(cluster.query(text))
            assert self._delta(before) == (0, 1)
            assert cluster.cached_results == 1
        assert second == first and len(first["rows"]) == shards

    @pytest.mark.parametrize("shard", [0, 1])
    def test_an_insert_on_either_shard_reaches_the_next_answer(
            self, tmp_path, shard):
        """After the insert, the star asks both shards again (2 RPCs) and
        the chain its two stars of both (4), and both see the write."""
        self._counts()  # skips when counters are off
        subject = _subject_on_shard(shard, 2, start=200)
        target = _subject_on_shard(1 - shard, 2, start=100)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            self._chain(cluster, 2)
            cached = [cluster.query(text).rows
                      for text in (self.STAR, self.CHAIN)]
            cluster.insert(subject, "p", target, 1010)
            before = self._counts()
            star, chain = [cluster.query(text).rows
                           for text in (self.STAR, self.CHAIN)]
            assert self._delta(before) == (2 + 4, 0)
        assert [len(rows) for rows in cached] == [2, 2]
        assert {"s": subject, "o": target} in star and len(star) == 3
        assert {"s": subject, "o": target, "m": f"m{1 - shard}"} in chain
        assert len(chain) == 3

    def test_no_answer_from_before_a_load_is_served(self, tmp_path):
        """A load moves no watermark.  The chain's pre-load answer is
        cached, and the star's read straddles the load: it gathered before
        the load and puts after it, under the generation it took first,
        which the load's invalidation retired."""
        from repro.model.graph import TemporalGraph
        from repro.model.time import NOW

        graph = TemporalGraph()
        for shard in range(2):
            subject = _subject_on_shard(shard, 2)
            target = _subject_on_shard(shard, 2, start=100)
            graph.add(subject, "p", target, 1000, NOW)
            graph.add(target, "q", f"m{shard}", 1001, NOW)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            assert cluster.query(self.CHAIN).rows == []
            gather, loaded = cluster._gather, []

            def gather_then_load(requests):
                rows = gather(requests)
                if not loaded:
                    loaded.append(cluster.load_dataset(graph))
                return rows

            cluster._gather = gather_then_load
            assert cluster.query(self.STAR).rows == []
            assert cluster.revision == 0 and cluster.live_facts == 4
            assert len(cluster.query(self.STAR).rows) == 2
            assert len(cluster.query(self.CHAIN).rows) == 2

    def test_no_worker_keeps_a_result_cache(self, tmp_path):
        """Workers answer every read they get, and look none of them up:
        their ``service.cache`` counters stay 0."""
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            self._chain(cluster, 2)
            for text in (self.STAR, self.CHAIN, self.STAR, self.CHAIN):
                cluster.query(text)
            replies = [member.primary.rpc(protocol.Metrics())
                       for member in cluster._membership.members]
        if not all(reply.enabled for reply in replies):
            pytest.skip("counters are off (REPRO_OBS=0)")
        counters = [reply.metrics["counters"] for reply in replies]
        assert len(counters) == 2
        assert sum(c["cluster.worker.requests"] for c in counters) > 0
        assert [(c.get("service.cache.hits", 0),
                 c.get("service.cache.misses", 0))
                for c in counters] == [(0, 0)] * 2

    def test_readers_beside_a_writer_see_every_write_they_count(
            self, tmp_path):
        """Readers in threads, cache hits among them, beside a writer.  A
        read pinned at watermark ``r`` sees the ``r`` acknowledged writes,
        and may see later ones that were issued before it returned (a
        write applies on its shard before the watermark counts it) —
        what an uncached read can see, and nothing staler."""
        from repro.obs import metrics
        from repro.sparqlt.parser import parse

        hits = metrics.counter("service.cache.hits")
        hits_before = hits.value
        texts = [self.STAR, "SELECT ?s {?s p o ?t}"]
        subjects = [f"w{index}" for index in range(30)]
        issued, done, seen, errors = [0], threading.Event(), [], []

        def read() -> None:
            try:
                while not done.is_set():
                    for text in texts:
                        before = cluster.revision
                        result = cluster.query(text)
                        seen.append((before, result.revision,
                                     {row["s"] for row in result.rows},
                                     issued[0]))
            except Exception as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            readers = [threading.Thread(target=read) for _ in range(3)]
            sys.setswitchinterval(1e-5)
            for reader in readers:
                reader.start()
            try:
                for day, subject in enumerate(subjects):
                    issued[0] = day + 1
                    cluster.insert(subject, "p", "o", 1000 + day)
                    time.sleep(0.005)  # room for hits between writes
            finally:
                done.set()
                for reader in readers:
                    reader.join(60)
                sys.setswitchinterval(interval)
            assert not any(reader.is_alive() for reader in readers)
            final = [cluster.query(text).rows for text in texts]
            uncached = [cluster.query(parse(text)).rows for text in texts]
        assert errors == []
        assert final == uncached and len(final[0]) == len(subjects)
        if metrics.ENABLED:
            assert hits.value > hits_before
        for before, revision, got, issued_by in seen:
            assert before <= revision
            assert set(subjects[:revision]) <= got
            assert got <= set(subjects[:issued_by])

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


class TestDeadShard:
    """A shard is one worker.  When it dies, its shard raises
    ``ShardDown`` and the others keep answering; a cluster reopened over
    the same directory recovers every acknowledged write."""

    def test_a_dead_shard_raises_until_the_cluster_is_reopened(
            self, tmp_path, graph, query_mix):
        s0 = [_subject_on_shard(0, 2, start=50_000 + 100 * i)
              for i in range(3)]
        s1 = [_subject_on_shard(1, 2, start=60_000 + 100 * i)
              for i in range(3)]
        # No result cache: every read after the kill reaches the shards.
        with ClusterStore(tmp_path / "clu", shards=2, fsync=False,
                          query_cache_size=None) as cluster:
            cluster.load_dataset(graph)
            acked = []
            for day, subject in enumerate(s0 + s1):
                cluster.insert(subject, "liveness", f"v{day}", 20_000 + day)
                acked.append((subject, f"v{day}"))
            listing = "SELECT ?s ?o {?s liveness ?o ?t}"
            before = [_serialize(cluster.query(t)) for t in query_mix]
            assert sorted((r["s"], r["o"]) for r in
                          cluster.query(listing).rows) == sorted(acked)
            star = f"SELECT ?o {{{s1[0]} liveness ?o ?t}}"
            assert _serialize(cluster.query(star))["rows"] == [["v3"]]

            dead = cluster._membership.members[0].primary
            events.EVENTS.clear()
            os.kill(dead.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while _running(dead.pid) and time.monotonic() < deadline:
                time.sleep(0.02)

            # a star whose constant subject is on shard 1 still answers
            assert _serialize(cluster.query(star))["rows"] == [["v3"]]
            # a read or an insert that needs shard 0 raises ShardDown
            with pytest.raises(ShardDown, match="shard 0 is down"):
                cluster.query(listing)
            with pytest.raises(ShardDown):
                cluster.query(f"SELECT ?o {{{s0[0]} liveness ?o ?t}}")
            with pytest.raises(ShardDown):
                cluster.insert(s0[0], "after", "kill", 30_000)
            assert cluster.revision == len(acked)
            assert not dead.alive
            # three requests failed on the dead shard: one death recorded
            deaths = [e for e in cluster.cluster_events()
                      if e["event"] == "cluster.event.member_dead"]
            assert [e["pid"] for e in deaths] == [dead.pid]
            status = cluster.cluster_status()["members"]
            assert status[0]["primary"]["alive"] is False
            assert status[1]["primary"]["alive"] is True
            # shard 1 still takes writes (at the last chronon, so the
            # horizon the mix was answered under stays where it was)
            cluster.insert(s1[0], "liveness", "late", 20_005)
            acked.append((s1[0], "late"))

        with ClusterStore(tmp_path / "clu", shards=2, fsync=False,
                          query_cache_size=None) as cluster:
            assert cluster.revision == len(acked)
            after = [_serialize(cluster.query(t)) for t in query_mix]
            assert after == before
            assert sorted((r["s"], r["o"]) for r in
                          cluster.query(listing).rows) == sorted(acked)

    def test_healthz_answers_503_and_cluster_status_prints_the_dead_shard(
            self, tmp_path, graph, capsys):
        import urllib.error
        import urllib.request

        from repro import cli
        from repro.service.server import serve

        with ClusterStore(tmp_path / "clu", shards=2, fsync=False) as cluster:
            cluster.load_dataset(graph)
            service = serve(cluster, role="coordinator")
            thread = threading.Thread(target=service.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                url = f"http://127.0.0.1:{service.port}"
                assert cli.main(["cluster-status", url]) == 0
                dead = cluster._membership.members[1].primary
                os.kill(dead.pid, signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while _running(dead.pid) and time.monotonic() < deadline:
                    time.sleep(0.02)

                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(url + "/healthz", timeout=30)
                assert refused.value.code == 503
                body = json.loads(refused.value.read())
                assert body["status"] == "degraded"
                assert body["role"] == "coordinator"
                assert body["live_facts"] is None
                members = body["cluster"]["members"]
                assert [m["shard"] for m in members] == [0, 1]
                assert members[0]["primary"]["alive"] is True
                assert members[1]["primary"]["alive"] is False
                assert members[1]["primary"]["pid"] == dead.pid

                capsys.readouterr()
                assert cli.main(["cluster-status", url]) == 1
                out = capsys.readouterr().out
                assert f"  shard 1: pid {dead.pid} DOWN\n" in out
                assert "  shard 0: pid " in out and " up, lsn " in out
                assert cli.main(["cluster-status", url, "--json"]) == 1
                assert json.loads(capsys.readouterr().out)["cluster"][
                    "members"][1]["primary"]["alive"] is False
            finally:
                service.shutdown()
                thread.join(timeout=10)

    def test_replicas_other_than_zero_are_refused_before_any_worker_starts(
            self, tmp_path):
        events.EVENTS.clear()
        with pytest.raises(ValueError, match="replicas must be 0, got 1"):
            ClusterStore(tmp_path / "clu", shards=2, replicas=1,
                         fsync=False)
        assert _started_pids() == []
        assert not (tmp_path / "clu").exists()


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

    def test_checkpoint_truncates_every_wal_and_survives_sigkill(
            self, tmp_path):
        """Updates on both shards, a checkpoint, more updates, then SIGKILL
        of every worker: a cluster reopened on the directory answers every
        acknowledged write, from the checkpoint's snapshots and the WALs
        written after them."""
        from repro.service.wal import read_records

        def wal(client) -> list:
            return read_records(client.directory / TemporalStore.WAL_NAME)

        subjects = [_subject_on_shard(shard, 2) for shard in range(2)]
        acked = []
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            for day, subject in enumerate(subjects * 2):
                cluster.insert(subject, "p", f"v{day}", 1000 + day)
                acked.append((subject, f"v{day}"))
            members = cluster._membership.members
            assert all(len(wal(member.primary)) == 2 for member in members)
            assert cluster.checkpoint() == tmp_path / "clu"
            for member in members:
                assert wal(member.primary) == []
            cluster.insert(subjects[1], "p", "after", 1100)
            acked.append((subjects[1], "after"))
            for member in members:
                os.kill(member.primary.pid, signal.SIGKILL)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            rows = cluster.query("SELECT ?s ?o {?s p ?o ?t}").rows
        assert sorted((row["s"], row["o"]) for row in rows) == sorted(acked)

    def test_checkpoint_every_empties_each_wal_and_survives_sigkill(
            self, tmp_path):
        """``checkpoint_every=3``, as the store takes it: the third
        acknowledged insert checkpoints both shards, and a cluster
        reopened after a SIGKILL of every worker reads all three back."""
        from repro.service.wal import read_records

        def wal_records(members) -> list[int]:
            return [len(read_records(member.primary.directory
                                     / TemporalStore.WAL_NAME))
                    for member in members]

        subjects = [_subject_on_shard(shard, 2) for shard in (0, 1, 0)]
        acked = []
        with ClusterStore(tmp_path / "clu", shards=2, fsync=False,
                          checkpoint_every=3) as cluster:
            members = cluster._membership.members
            for day, subject in enumerate(subjects):
                if day == 2:
                    assert wal_records(members) == [1, 1]
                cluster.insert(subject, "p", f"v{day}", 1000 + day)
                acked.append((subject, f"v{day}"))
            assert wal_records(members) == [0, 0]
            for member in members:
                os.kill(member.primary.pid, signal.SIGKILL)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            rows = cluster.query("SELECT ?s ?o {?s p ?o ?t}").rows
        assert sorted((row["s"], row["o"]) for row in rows) == sorted(acked)


class TestClusterLoad:
    """``load_dataset`` loads every shard at once: one thread per member,
    all joined before an error surfaces."""

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

    def test_loads_overlap(self, tmp_path, graph, query_mix, monkeypatch):
        """Both loads pass the two-party barrier, so both were in flight
        at once."""
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            log = self._log_rpcs(monkeypatch)
            cluster.load_dataset(graph)
            assert log.count(("end", "load")) == 2
            assert len(cluster.query(query_mix[0]).rows) > 0

    def test_a_load_asks_for_status_and_no_predicate_inventory(
        self, tmp_path, graph, query_mix, monkeypatch
    ):
        """Routing needs no inventory of the loaded data, so a load
        re-reads each primary's status only."""
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            log = self._log_rpcs(monkeypatch)
            cluster.load_dataset(graph)
            started = [op for edge, op in log if edge == "start"]
            assert sorted(started) == ["load", "load", "status", "status"]
            assert cluster.revision == 0
            assert len(cluster.query(query_mix[0]).rows) > 0

    def test_a_restart_asks_each_primary_for_status_alone(
        self, tmp_path, monkeypatch
    ):
        """A coordinator restarted over existing shard directories sends
        one ``status`` per primary at start-up, and no other op: routing
        by subject needs nothing else from the shards."""
        s0 = _subject_on_shard(0, 2)
        s1 = _subject_on_shard(1, 2, start=10_000)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            cluster.insert(s0, "p", "a", 1000)
            cluster.insert(s1, "p", "b", 1001)
        log = self._log_rpcs(monkeypatch)
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            started = [op for edge, op in log if edge == "start"]
            assert started == ["status", "status"]
            assert cluster.revision == 2
            result = cluster.query("SELECT ?s ?o {?s p ?o ?t}")
            assert sorted((r["s"], r["o"]) for r in result.rows) == sorted(
                [(s0, "a"), (s1, "b")])

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

    def test_federated_metrics_members_and_groups(self, tmp_path):
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            s0 = _subject_on_shard(0, 2)
            s1 = _subject_on_shard(1, 2, start=10_000)
            cluster.insert(s0, "p", "a", 1000)
            cluster.insert(s1, "p", "b", 1001)

            federated = cluster.federated_metrics(force=True)
            assert federated["scope"] == "cluster"
            assert federated["watermark"] == 2

            members = federated["members"]
            assert [m["role"] for m in members] == [
                "coordinator", "shard", "shard"]
            assert [m.get("shard") for m in members] == [None, 0, 1]
            for entry in members[1:]:
                assert entry["alive"], entry
                assert entry["enabled"], entry

            # one group per member, holding that member's own snapshot
            groups = federated["groups"]
            assert [g["labels"] for g in groups] == [
                {"role": "coordinator"},
                {"shard": "0", "role": "shard"},
                {"shard": "1", "role": "shard"},
            ]
            for group, member in zip(groups, members):
                assert group["metrics"] is member["metrics"]
            for group in groups[1:]:
                assert group["metrics"]["counters"][
                    "cluster.worker.requests"] > 0

            # pulls within max_age are served from the cache
            assert cluster.federated_metrics() is federated
            assert cluster.federated_metrics(force=True) is not federated

    def test_op_metrics_disabled_reports_empty(self):
        """REPRO_OBS=0 workers answer the metrics op with enabled=false
        and an empty snapshot, never frozen pre-disable series."""
        from repro.cluster import worker as cluster_worker
        from repro.obs import metrics

        class _Store:
            revision = 7

        class _State:
            store = _Store()

        metrics.set_enabled(False)
        try:
            response = cluster_worker._op_metrics(
                _State(), protocol.Metrics())
        finally:
            metrics.set_enabled(True)
        assert protocol.to_wire(response) == {
            "ok": True, "enabled": False, "metrics": {},
            "role": "shard", "revision": 7,
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
            if isinstance(request, protocol.Status):
                raise StoreError("status unavailable")
            return real_rpc(self, request, timeout=timeout)

        monkeypatch.setattr(ShardClient, "rpc", rpc)
        events.EVENTS.clear()
        with pytest.raises(StoreError, match="status unavailable"):
            ClusterStore(tmp_path / "clu", shards=2, fsync=False)
        _assert_reaped(_started_pids())

    def test_bringup_span_attributes_each_worker(self, tmp_path):
        """``cluster.bringup`` holds one ``cluster.worker.ready`` child
        per worker; on a restart over existing directories the children
        report what recovery replayed."""
        from repro.obs import trace as _trace

        def bring_up():
            with _trace.start_trace("test.bringup") as trace:
                cluster = ClusterStore(tmp_path / "clu", shards=2,
                                       fsync=False)
            (bringup,) = [s for s in _walk_spans(trace.root)
                          if s.name == "cluster.bringup"]
            assert bringup.attrs == {"shards": 2}
            ready = bringup.children
            assert [s.name for s in ready] == ["cluster.worker.ready"] * 2
            assert sorted((s.attrs["shard"], s.attrs["role"])
                          for s in ready) == [(0, "shard"), (1, "shard")]
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
            assert sum(s.attrs["replayed"] for s in ready) == 6


class TestClusterReporting:
    def test_status_shape_and_storage_report(self, tmp_path):
        with ClusterStore(tmp_path / "clu", shards=2,
                          fsync=False) as cluster:
            cluster.insert("a", "p", "v", 1000)
            status = cluster.cluster_status()
            assert status["shards"] == 2
            assert len(status["members"]) == 2
            for member in status["members"]:
                assert set(member) == {"shard", "primary"}
                assert member["primary"]["role"] == "shard"
                assert member["primary"]["alive"]
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
