"""The span tracer: tree shape, context propagation, sampling, kill switch.

Covers :mod:`repro.obs.trace` directly (no HTTP): span nesting via
``contextvars``, parent inheritance across thread-pool submissions,
deterministic sampling, the ring buffer, the ``REPRO_OBS`` kill switch,
and the histogram type feeding the latency percentiles.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import metrics, trace
from repro.obs.metrics import DEFAULT_BUCKETS_MS, Histogram


@pytest.fixture()
def buffer():
    return trace.TraceBuffer(capacity=8)


# ----------------------------------------------------------------- span tree


class TestSpanTree:
    def test_nesting_follows_lexical_scope(self, buffer):
        with trace.start_trace("request", buffer):
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
            with trace.span("sibling"):
                pass
        (tr,) = buffer.recent()
        root = tr.root
        assert root.name == "request"
        assert [c.name for c in root.children] == ["outer", "sibling"]
        outer = root.children[0]
        assert [c.name for c in outer.children] == ["inner"]

    def test_durations_are_closed_and_ordered(self, buffer):
        with trace.start_trace("request", buffer):
            with trace.span("child"):
                pass
        (tr,) = buffer.recent()
        child = tr.root.children[0]
        assert child.end_ms is not None
        assert child.duration_ms >= 0.0
        assert tr.duration_ms >= child.duration_ms

    def test_attrs_and_trace_attrs(self, buffer):
        with trace.start_trace("request", buffer, path="/query"):
            with trace.span("child", kind="scan"):
                trace.annotate(rows=7)
            trace.annotate_trace(cache_hit=True)
        (tr,) = buffer.recent()
        assert tr.attrs == {"path": "/query", "cache_hit": True}
        assert tr.root.children[0].attrs == {"kind": "scan", "rows": 7}

    def test_span_survives_exceptions(self, buffer):
        with pytest.raises(RuntimeError):
            with trace.start_trace("request", buffer):
                with trace.span("failing"):
                    raise RuntimeError("boom")
        (tr,) = buffer.recent()
        failing = tr.root.children[0]
        assert failing.end_ms is not None  # closed despite the raise

    def test_span_outside_trace_is_noop(self, buffer):
        with trace.span("orphan"):
            pass
        assert len(buffer) == 0
        assert trace.current_trace_id() is None
        assert not trace.active()

    def test_trace_ids_are_unique(self, buffer):
        for _ in range(3):
            with trace.start_trace("request", buffer):
                pass
        ids = [t.trace_id for t in buffer.recent()]
        assert len(set(ids)) == 3

    def test_no_span_object_can_be_started_or_finished_by_hand(self, buffer):
        """Spans open and close only through ``with``: neither the context
        managers nor what they yield, real or no-op, has start/finish."""
        with trace.span("orphan") as noop_span:  # outside any trace
            objects = [trace.span("orphan"), noop_span]
        trace_cm = trace.start_trace("request", buffer)
        with trace_cm as tr:
            span_cm = trace.span("child")
            with span_cm as child:
                objects += [trace_cm, tr, tr.root, span_cm, child]
        previous = metrics.set_enabled(False)
        try:
            objects += [trace.start_trace("off"), trace.span("off")]
        finally:
            metrics.set_enabled(previous)
        for obj in objects:
            assert not hasattr(obj, "start"), obj
            assert not hasattr(obj, "finish"), obj

    def test_as_dict_is_json_shaped(self, buffer):
        import json

        with trace.start_trace("request", buffer):
            with trace.span("child"):
                pass
        (tr,) = buffer.recent()
        payload = json.loads(json.dumps(tr.as_dict()))
        assert payload["trace_id"] == tr.trace_id
        assert payload["root"]["children"][0]["name"] == "child"


# ------------------------------------------------------- context propagation


class TestPoolPropagation:
    def test_submit_carries_parent_span(self, buffer):
        def work(i):
            with trace.span("task", i=i):
                return trace.current_trace_id()

        with ThreadPoolExecutor(max_workers=2) as pool:
            with trace.start_trace("request", buffer) as tr:
                futures = [
                    trace.submit(pool, work, i) for i in range(4)
                ]
                seen = [f.result() for f in futures]
        assert seen == [tr.trace_id] * 4
        (stored,) = buffer.recent()
        names = [c.name for c in stored.root.children]
        assert names == ["task"] * 4
        assert sorted(c.attrs["i"] for c in stored.root.children) == [
            0, 1, 2, 3,
        ]

    def test_submit_outside_trace_degrades_to_plain(self):
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = trace.submit(pool, lambda: trace.active())
            assert future.result() is False

    def test_concurrent_traces_do_not_cross(self, buffer):
        """Two traces running on two threads keep separate span trees."""
        import threading

        barrier = threading.Barrier(2)

        def run(tag):
            with trace.start_trace(f"request-{tag}", buffer):
                barrier.wait(timeout=5)
                with trace.span(f"child-{tag}"):
                    pass

        threads = [
            threading.Thread(target=run, args=(t,)) for t in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        by_name = {t.name: t for t in buffer.recent()}
        assert set(by_name) == {"request-a", "request-b"}
        for tag in ("a", "b"):
            children = by_name[f"request-{tag}"].root.children
            assert [c.name for c in children] == [f"child-{tag}"]


# ------------------------------------------------------------------ sampling


class TestSampler:
    def test_rate_one_keeps_everything(self):
        sampler = trace.Sampler(1.0)
        assert all(sampler.keep() for _ in range(10))

    def test_rate_zero_keeps_nothing(self):
        sampler = trace.Sampler(0.0)
        assert not any(sampler.keep() for _ in range(10))

    def test_fractional_rate_is_deterministic(self):
        sampler = trace.Sampler(0.25)
        kept = [sampler.keep() for _ in range(12)]
        assert kept == [False, False, False, True] * 3

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            trace.Sampler(1.5)
        with pytest.raises(ValueError):
            trace.Sampler(-0.1)


# --------------------------------------------------------------- ring buffer


class TestTraceBuffer:
    def test_capacity_evicts_oldest(self):
        buffer = trace.TraceBuffer(capacity=2)
        for i in range(4):
            with trace.start_trace(f"t{i}", buffer):
                pass
        names = [t.name for t in buffer.recent()]
        assert names == ["t3", "t2"]

    def test_get_by_id(self, buffer):
        with trace.start_trace("wanted", buffer) as tr:
            pass
        assert buffer.get(tr.trace_id) is tr
        assert buffer.get("nope") is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            trace.TraceBuffer(capacity=0)

    def test_recent_takes_nothing_for_a_limit_below_one(self, buffer):
        for i in range(3):
            with trace.start_trace(f"t{i}", buffer):
                pass
        assert [t.name for t in buffer.recent(1)] == ["t2"]
        assert buffer.recent(0) == []
        assert buffer.recent(-2) == []


# ------------------------------------------------------- statistics refresh


class TestStatisticsRefreshSpan:
    """An explicit statistics rebuild reads the history back and rebuilds
    the histogram over it; its trace must say so instead of showing self
    time.  Writes keep the statistics current, so no compile pays one."""

    @staticmethod
    def _engine():
        from repro.engine import RDFTX
        from repro.model import TemporalGraph
        from repro.optimizer import Optimizer

        graph = TemporalGraph()
        for i in range(40):
            graph.add(f"s{i % 8}", f"p{i % 3}", f"o{i}", i, i + 5)
        return RDFTX.from_graph(graph, optimizer=Optimizer())

    def test_refresh_reads_the_history_then_rebuilds(self, buffer):
        engine = self._engine()
        rebuilds = metrics.REGISTRY.counter("optimizer.rebuilds")
        stalls = metrics.REGISTRY.histogram("optimizer.rebuild_ms")
        before = (rebuilds.value, stalls.count)
        engine.insert("s1", "p1", "fresh", 100)
        engine.insert("s2", "p1", "fresher", 101)
        with trace.start_trace("request", buffer):
            engine.query("SELECT ?s {?s p1 ?o ?t . ?s p2 ?x ?t}")
        (tr,) = buffer.recent()
        compile_span = tr.root.children[0]
        assert compile_span.name == "engine.compile"
        assert [span.name for span in compile_span.children] == [
            "optimizer.choose_order"]
        assert (rebuilds.value, stalls.count) == before
        with trace.start_trace("refresh", buffer):
            assert engine.refresh_statistics() is True
        (tr,) = [t for t in buffer.recent() if t.root.name == "refresh"]
        # The engine keeps no copy of the data to rebuild from: the rows
        # are read back off the SPO tree first, and the trace says so.
        history, rebuild = tr.root.children
        assert (history.name, history.attrs) == ("engine.history",
                                                 {"rows": 42})
        assert rebuild.name == "optimizer.rebuild"
        histogram = engine.optimizer.statistics.histogram
        assert rebuild.attrs == {
            "triples": 42,
            "candidates_built": histogram.candidates_built,
            "cm": histogram.cm,
        }
        assert (rebuilds.value, stalls.count) == (before[0] + 1, before[1] + 1)

    def test_kill_switch_counts_nothing(self, buffer):
        rebuilds = metrics.REGISTRY.counter("optimizer.rebuilds")
        stalls = metrics.REGISTRY.histogram("optimizer.rebuild_ms")
        before = (rebuilds.value, stalls.count)
        metrics.set_enabled(False)
        try:
            with trace.start_trace("request", buffer):
                engine = self._engine()
        finally:
            metrics.set_enabled(True)
        assert engine.optimizer.statistics is not None
        assert (rebuilds.value, stalls.count) == before
        assert len(buffer) == 0


# --------------------------------------------------------------------- load


class TestLoadSpans:
    """Set-up is attributable: a traced ``RDFTX.load`` says how long each
    index replay, the compression and the statistics build took."""

    def test_load_breaks_down_into_replays_compress_and_rebuild(self, buffer):
        with trace.start_trace("setup", buffer):
            engine = TestStatisticsRefreshSpan._engine()
        (tr,) = buffer.recent()
        (load,) = tr.root.children
        assert load.name == "engine.load"
        # 40 facts, every one ended: an insert and a delete each.
        assert load.attrs == {"triples": 40, "events": 80}
        # Each tree is packed right behind its own replay, so at most one
        # plain tree is resident at a time.
        assert [(c.name, c.attrs.get("index")) for c in load.children] == [
            (name, index)
            for index in ("spo", "pos", "ops")
            for name in ("mvbt.bulk_load", "mvbt.compress")
        ] + [("optimizer.rebuild", None)]
        assert sum(c.duration_ms for c in load.children) <= load.duration_ms
        assert all(tree.is_packed for tree in engine.indexes.values())


# --------------------------------------------------------------- kill switch


class TestKillSwitch:
    def test_disabled_records_nothing(self, buffer):
        metrics.set_enabled(False)
        try:
            with trace.start_trace("request", buffer) as tr:
                with trace.span("child"):
                    trace.annotate(rows=1)
                trace.annotate_trace(cache_hit=True)
                assert not trace.active()
                assert trace.current_trace_id() is None
            assert not isinstance(tr, trace.Trace)
        finally:
            metrics.set_enabled(True)
        assert len(buffer) == 0

    def test_disabled_histogram_records_nothing(self):
        hist = Histogram("test.disabled_ms")
        metrics.set_enabled(False)
        try:
            hist.observe(5.0)
        finally:
            metrics.set_enabled(True)
        assert hist.count == 0


# ---------------------------------------------------------------- histogram


class TestHistogram:
    def test_quantiles_from_buckets(self):
        hist = Histogram("test.latency_ms")
        for value in (0.3, 1.5, 7.0, 42.0, 42.0, 900.0):
            hist.observe(value)
        assert hist.count == 6
        assert hist.sum_ms == pytest.approx(992.8)
        # p50 lands in the (5, 10] bucket via interpolation.
        assert 5.0 < hist.quantile(0.5) <= 10.0
        assert hist.quantile(0.99) <= 1000.0

    def test_overflow_clamps_to_last_bound(self):
        hist = Histogram("test.overflow_ms")
        hist.observe(99999.0)
        assert hist.as_dict()["overflow"] == 1
        assert hist.quantile(0.5) == DEFAULT_BUCKETS_MS[-1]

    def test_empty_histogram(self):
        hist = Histogram("test.empty_ms")
        assert hist.quantile(0.5) == 0.0
        assert hist.as_dict()["count"] == 0

    def test_bounds_must_increase(self):
        assert Histogram.bounds is DEFAULT_BUCKETS_MS
        assert all(lower < upper for lower, upper
                   in zip(DEFAULT_BUCKETS_MS, DEFAULT_BUCKETS_MS[1:]))

    def test_registry_snapshot_and_reset(self):
        registry = metrics.Registry()
        hist = registry.histogram("service.server.request_ms")
        hist.observe(3.0)
        snap = registry.snapshot()
        assert snap["histograms"]["service.server.request_ms"]["count"] == 1
        registry.reset()
        assert hist.count == 0

    def test_registry_returns_same_instance(self):
        registry = metrics.Registry()
        first = registry.histogram("service.server.request_ms")
        second = registry.histogram("service.server.request_ms")
        assert first is second

    def test_default_buckets_cover_sub_ms_to_ten_s(self):
        assert DEFAULT_BUCKETS_MS[0] <= 0.1
        assert DEFAULT_BUCKETS_MS[-1] >= 10_000.0
        assert list(DEFAULT_BUCKETS_MS) == sorted(DEFAULT_BUCKETS_MS)


# ------------------------------------------------------------ prometheus text


class TestPrometheusRendering:
    def test_counter_gauge_histogram_series(self):
        registry = metrics.Registry()
        registry.counter("service.server.requests").inc(3)
        registry.gauge("process.rss_bytes").set(2)
        hist = registry.histogram("service.server.request_ms")
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50000.0)  # overflow
        text = registry.render_prometheus()
        assert "# TYPE repro_service_server_requests_total counter" in text
        assert "repro_service_server_requests_total 3" in text
        assert "repro_process_rss_bytes 2" in text
        assert '# TYPE repro_service_server_request_ms histogram' in text
        assert 'repro_service_server_request_ms_bucket{le="1"} 1' in text
        assert 'repro_service_server_request_ms_bucket{le="10"} 2' in text
        assert 'repro_service_server_request_ms_bucket{le="10000"} 2' in text
        assert 'repro_service_server_request_ms_bucket{le="+Inf"} 3' in text
        assert "repro_service_server_request_ms_count 3" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = metrics.Registry()
        hist = registry.histogram("service.store.query_ms")
        for value in (0.5, 1.5, 1.7, 4.0):
            hist.observe(value)
        text = registry.render_prometheus()
        assert 'query_ms_bucket{le="1"} 1' in text
        assert 'query_ms_bucket{le="2"} 3' in text
        assert 'query_ms_bucket{le="5"} 4' in text
