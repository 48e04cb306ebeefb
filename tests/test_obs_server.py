"""Serving-layer observability: trace ids, /debug/traces, histograms,
Prometheus text, structured logs, and behaviour under concurrent load."""

import http.client
import io
import json
import threading
import time

import pytest

from repro.model import date_to_chronon
from repro.obs import log as obslog
from repro.obs import metrics
from repro.obs import workload
from repro.service import TemporalStore, serve

from tests.test_service_store import fixture_graph

D = date_to_chronon

QUERY = "SELECT ?o {UC president ?o ?t}"
JOIN_QUERY = "SELECT ?o ?b {UC president ?o ?t . UC budget ?b ?u}"


@pytest.fixture()
def store(tmp_path):
    # group_size=1 so every update group-commits immediately — the WAL
    # sync span shows up in each update's trace.
    with TemporalStore(tmp_path, group_size=1) as s:
        s.load_dataset(fixture_graph())
        yield s


def _serve(store, **kwargs):
    svc = serve(store, port=0, max_inflight=4, request_timeout=10.0,
                **kwargs)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    return svc, thread


@pytest.fixture()
def service(store):
    svc, thread = _serve(store)
    yield svc
    svc.shutdown()
    thread.join(timeout=10)


def _request(service, method, path, payload=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=15)
    try:
        body = json.dumps(payload) if payload is not None else None
        send_headers = dict(headers or {})
        if body:
            send_headers.setdefault("Content-Type", "application/json")
        conn.request(method, path, body, send_headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _json_request(service, method, path, payload=None, headers=None):
    status, raw = _request(service, method, path, payload, headers)
    return status, json.loads(raw)


def _span_names(node, out=None):
    if out is None:
        out = []
    out.append(node["name"])
    for child in node["children"]:
        _span_names(child, out)
    return out


# -------------------------------------------------------------- trace ids


class TestTraceIds:
    def test_query_response_carries_trace_id(self, service):
        status, body = _json_request(service, "POST", "/query",
                                     {"query": QUERY})
        assert status == 200
        assert body["trace_id"]

    def test_debug_traces_returns_the_span_tree(self, service):
        _, body = _json_request(service, "POST", "/query", {"query": QUERY})
        trace_id = body["trace_id"]
        status, detail = _json_request(
            service, "GET", f"/debug/traces?id={trace_id}"
        )
        assert status == 200
        assert detail["trace_id"] == trace_id
        assert detail["name"] == "POST /query"
        names = _span_names(detail["root"])
        assert "store.query" in names
        assert "admission.wait" in names
        assert "scan.pattern" in names  # the index-scan leaf
        assert detail["attrs"]["status"] == 200
        assert detail["attrs"]["cache_hit"] is False

    def test_join_query_records_join_span(self, service):
        _, body = _json_request(service, "POST", "/query",
                                {"query": JOIN_QUERY})
        _, detail = _json_request(
            service, "GET", f"/debug/traces?id={body['trace_id']}"
        )
        names = _span_names(detail["root"])
        assert names.count("scan.pattern") == 2
        assert any(n.startswith("join.") for n in names)

    def test_update_trace_has_wal_spans(self, service):
        _, body = _json_request(service, "POST", "/update", {
            "op": "insert", "subject": "UC", "predicate": "chancellor",
            "object": "Carol_Christ", "time": D("07/01/2017"),
        })
        _, detail = _json_request(
            service, "GET", f"/debug/traces?id={body['trace_id']}"
        )
        names = _span_names(detail["root"])
        assert "store.update" in names
        assert "wal.append" in names
        assert "wal.sync" in names  # group_size=1 commits per update
        assert "lock.write.wait" in names

    def test_cached_repeat_is_marked_hit(self, service):
        _json_request(service, "POST", "/query", {"query": QUERY})
        _, second = _json_request(service, "POST", "/query",
                                  {"query": QUERY})
        _, detail = _json_request(
            service, "GET", f"/debug/traces?id={second['trace_id']}"
        )
        assert detail["attrs"]["cache_hit"] is True
        names = _span_names(detail["root"])
        assert "cache.lookup" in names
        assert "scan.pattern" not in names  # served without scanning

    def test_trace_listing_and_missing_id(self, service):
        _, body = _json_request(service, "POST", "/query", {"query": QUERY})
        status, listing = _json_request(service, "GET", "/debug/traces")
        assert status == 200
        ids = [t["trace_id"] for t in listing["traces"]]
        assert body["trace_id"] in ids
        # Malformed id (can never exist) vs. well-formed-but-unknown id.
        assert _json_request(service, "GET", "/debug/traces?id=nope")[0] \
            == 400
        assert _json_request(
            service, "GET", "/debug/traces?id=abc-00ffffff"
        )[0] == 404

    def test_profiled_query_still_traced(self, service):
        _, body = _json_request(service, "POST", "/query",
                                {"query": QUERY, "profile": True})
        assert "profile" in body
        assert body["trace_id"]


# --------------------------------------------------------------- sampling


class TestSampling:
    def test_sample_zero_disables_tracing(self, store):
        svc, thread = _serve(store, trace_sample=0.0)
        try:
            _, body = _json_request(svc, "POST", "/query", {"query": QUERY})
            assert "trace_id" not in body
            _, listing = _json_request(svc, "GET", "/debug/traces")
            assert listing["traces"] == []
        finally:
            svc.shutdown()
            thread.join(timeout=10)

    def test_fractional_sample_keeps_some(self, store):
        svc, thread = _serve(store, trace_sample=0.5)
        try:
            bodies = [
                _json_request(svc, "POST", "/query", {"query": QUERY})[1]
                for _ in range(4)
            ]
            traced = [b for b in bodies if "trace_id" in b]
            assert len(traced) == 2  # deterministic accumulator sampling
        finally:
            svc.shutdown()
            thread.join(timeout=10)


# ----------------------------------------------------------------- metrics


class TestHistogramsOverHTTP:
    def test_request_histogram_grows_per_request(self, service):
        before = metrics.REGISTRY.histogram(
            "service.server.request_ms"
        ).count
        for _ in range(3):
            _json_request(service, "POST", "/query", {"query": QUERY})
        _, snap = _json_request(service, "GET", "/metrics")
        hist = snap["histograms"]["service.server.request_ms"]
        assert hist["count"] == before + 3
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(hist)

    def test_prometheus_rendering_on_accept_header(self, service):
        _json_request(service, "POST", "/query", {"query": QUERY})
        status, raw = _request(service, "GET", "/metrics",
                               headers={"Accept": "text/plain"})
        text = raw.decode("utf-8")
        assert status == 200
        assert "# TYPE repro_service_server_request_ms histogram" in text
        assert 'repro_service_server_request_ms_bucket{le="+Inf"}' in text
        assert "repro_service_server_requests_total" in text

    def test_json_stays_the_default(self, service):
        status, body = _json_request(service, "GET", "/metrics")
        assert status == 200
        assert "histograms" in body


# -------------------------------------------------------------- structured log


class TestStructuredLogs:
    @pytest.fixture()
    def captured(self):
        stream = io.StringIO()
        obslog.set_stream(stream)
        obslog.set_level("info")
        yield stream
        obslog.set_level("warning")
        obslog.set_stream(None)

    def _lines(self, stream, event, count: int = 1, timeout: float = 5.0):
        """The logged lines of ``event``.  The server logs a request after
        answering it, so the client waits (bounded) for ``count`` lines."""
        deadline = time.monotonic() + timeout
        while True:
            lines = [
                json.loads(line) for line in stream.getvalue().splitlines()
                if json.loads(line)["event"] == event
            ]
            if len(lines) >= count or time.monotonic() > deadline:
                return lines
            time.sleep(0.01)

    def test_access_log_line_per_request(self, service, captured):
        _, body = _json_request(service, "POST", "/query", {"query": QUERY})
        lines = self._lines(captured, "http_access")
        assert len(lines) == 1
        (line,) = lines
        assert line["method"] == "POST"
        assert line["path"] == "/query"
        assert line["status"] == 200
        assert line["trace_id"] == body["trace_id"]
        assert line["cache_hit"] is False
        assert line["duration_ms"] >= 0

    def test_quiet_by_default_at_warning(self, service):
        stream = io.StringIO()
        obslog.set_stream(stream)
        try:
            _json_request(service, "POST", "/query", {"query": QUERY})
            assert stream.getvalue() == ""
        finally:
            obslog.set_stream(None)

    def test_slow_query_log_carries_span_tree(self, store, captured):
        svc, thread = _serve(store, slow_ms=0.0)  # everything is "slow"
        try:
            _, body = _json_request(svc, "POST", "/query", {"query": QUERY})
            lines = self._lines(captured, "slow_query")
            assert len(lines) == 1
            (line,) = lines
            assert line["level"] == "warning"
            assert line["trace_id"] == body["trace_id"]
            assert "store.query" in _span_names(line["trace"]["root"])
        finally:
            svc.shutdown()
            thread.join(timeout=10)

    def test_error_statuses_logged_with_status(self, service, captured):
        status, _ = _json_request(service, "POST", "/query",
                                  {"query": "SELECT ?x {"})
        assert status == 400
        lines = self._lines(captured, "http_access")
        assert lines[-1]["status"] == 400

    def test_refused_posts_are_observed_and_logged(self, service, captured):
        """A POST to no endpoint (404) and one with an unreadable body
        (400) are answered like any other: each lands in the request
        histogram once and gets its access-log line."""
        hist = metrics.REGISTRY.histogram("service.server.request_ms")
        before = hist.count
        status, _ = _json_request(service, "POST", "/nowhere", {"x": 1})
        assert status == 404
        status, body = _json_request(service, "POST", "/query", [1, 2])
        assert status == 400
        assert body["error"].startswith("bad request body")
        assert hist.count - before == 2
        lines = self._lines(captured, "http_access", count=2)
        assert [(line["path"], line["status"]) for line in lines] == [
            ("/nowhere", 404), ("/query", 400),
        ]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obslog.set_level("loud")


# ------------------------------------------------------------- concurrency


class TestConcurrency:
    def test_histograms_and_traces_under_load(self, service):
        """N concurrent clients: every request gets its own trace, the
        histogram counts them all, and each span tree stays intact."""
        n = 8
        results = [None] * n
        errors = []
        before = metrics.REGISTRY.histogram(
            "service.server.request_ms"
        ).count

        def client(i):
            try:
                _, body = _json_request(service, "POST", "/query",
                                        {"query": QUERY})
                results[i] = body["trace_id"]
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert all(results)
        assert len(set(results)) == n  # no two requests share a trace
        after = metrics.REGISTRY.histogram(
            "service.server.request_ms"
        ).count
        assert after - before == n
        for trace_id in results:
            status, detail = _json_request(
                service, "GET", f"/debug/traces?id={trace_id}"
            )
            assert status == 200
            names = _span_names(detail["root"])
            assert "store.query" in names
            # Spans from other requests never leak into this tree.
            assert names.count("store.query") == 1


# ----------------------------------------------------------------- disabled


class TestKillSwitchOverHTTP:
    def test_disabled_obs_serves_without_traces(self, store):
        metrics.set_enabled(False)
        try:
            svc, thread = _serve(store)
            try:
                status, body = _json_request(svc, "POST", "/query",
                                             {"query": QUERY})
                assert status == 200
                assert "trace_id" not in body
                assert body["rows"]
                _, listing = _json_request(svc, "GET", "/debug/traces")
                assert listing["traces"] == []
            finally:
                svc.shutdown()
                thread.join(timeout=10)
        finally:
            metrics.set_enabled(True)


# ------------------------------------------------------- workload endpoint


class TestWorkloadEndpoint:
    def test_debug_workload_lists_shapes(self, service):
        workload.WORKLOAD.reset()
        _json_request(service, "POST", "/query", {"query": QUERY})
        _json_request(service, "POST", "/query", {"query": QUERY})  # hit
        _json_request(service, "POST", "/query", {"query": JOIN_QUERY})
        status, snap = _json_request(service, "GET", "/debug/workload")
        assert status == 200
        assert snap["enabled"] is True
        assert snap["distinct_shapes"] == 2
        assert snap["records"] == 3
        busiest = snap["shapes"][0]
        assert busiest["count"] == 2
        assert busiest["cache_hit_ratio"] == 0.5
        assert busiest["p95_ms"] >= 0
        assert busiest["exemplar_trace_id"]
        # The exemplar resolves to a real trace.
        assert _json_request(
            service, "GET",
            f"/debug/traces?id={busiest['exemplar_trace_id']}",
        )[0] == 200

    def test_workload_respects_limit_and_bad_limit(self, service):
        workload.WORKLOAD.reset()
        _json_request(service, "POST", "/query", {"query": QUERY})
        _json_request(service, "POST", "/query", {"query": JOIN_QUERY})
        _, snap = _json_request(service, "GET", "/debug/workload?limit=1")
        assert len(snap["shapes"]) == 1
        assert _json_request(
            service, "GET", "/debug/workload?limit=abc"
        )[0] == 400

    def test_workload_disabled_under_kill_switch(self, store):
        workload.WORKLOAD.reset()
        metrics.set_enabled(False)
        try:
            svc, thread = _serve(store)
            try:
                _json_request(svc, "POST", "/query", {"query": QUERY})
                status, snap = _json_request(svc, "GET", "/debug/workload")
                assert status == 200
                assert snap["enabled"] is False
                assert snap["shapes"] == []
            finally:
                svc.shutdown()
                thread.join(timeout=10)
        finally:
            metrics.set_enabled(True)


# -------------------------------------------------------- storage endpoint


class TestStorageEndpoint:
    def test_debug_storage_reports_health(self, service):
        status, report = _json_request(service, "GET", "/debug/storage")
        assert status == 200
        assert set(report["indexes"]) == {"spo", "pos", "ops"}
        spo = report["indexes"]["spo"]
        assert spo["depth"] >= 1
        assert spo["leaves"] >= 1
        assert 0.0 < spo["live_ratio"] <= 1.0
        assert spo["compression_ratio"] > 0
        assert report["dictionary"]["terms"] > 0
        assert report["store"]["wal"]["next_lsn"] >= 1
        assert "records_since_checkpoint" in report["store"]["wal"]
        assert report["total_size_bytes"] > 0


# ------------------------------------------------------ error-path trace ids


class TestErrorTraceIds:
    def test_timeout_response_carries_trace_id(self, store):
        original = store.query

        def slow_query(text, profile=False):
            time.sleep(0.5)
            return original(text, profile)

        store.query = slow_query
        svc = serve(store, port=0, max_inflight=4, request_timeout=0.05)
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _json_request(svc, "POST", "/query",
                                         {"query": QUERY})
            assert status == 504
            assert body["trace_id"]
        finally:
            store.query = original
            svc.shutdown()
            thread.join(timeout=10)

    def test_rejection_response_carries_trace_id(self, store):
        original = store.query
        entered = threading.Event()
        release = threading.Event()

        def blocking_query(text, profile=False):
            entered.set()
            release.wait(timeout=10)
            return original(text, profile)

        store.query = blocking_query
        svc = serve(store, port=0, max_inflight=1,
                    admission_timeout=0.01, request_timeout=30.0)
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        try:
            hog = threading.Thread(
                target=_json_request,
                args=(svc, "POST", "/query", {"query": QUERY}),
                daemon=True,
            )
            hog.start()
            # Only probe once the hog provably holds the single slot —
            # otherwise the probe can win the race and block instead.
            assert entered.wait(timeout=5)
            status, body = _json_request(svc, "POST", "/query",
                                         {"query": QUERY})
            assert status == 503
            assert body["trace_id"]
        finally:
            release.set()
            store.query = original
            svc.shutdown()
            thread.join(timeout=10)


# -------------------------------------------------------- process metrics


class TestProcessMetrics:
    def test_healthz_reports_uptime_and_rss(self, service):
        status, body = _json_request(service, "GET", "/healthz")
        assert status == 200
        assert body["uptime_seconds"] > 0
        # rss may be None off Linux; when present it is plausible.
        if body["rss_bytes"] is not None:
            assert body["rss_bytes"] > 1024 * 1024

    def test_prometheus_has_help_and_process_gauges(self, service):
        _, raw = _request(service, "GET", "/metrics",
                          headers={"Accept": "text/plain"})
        text = raw.decode("utf-8")
        assert ("# HELP repro_service_server_requests_total "
                "HTTP requests received") in text
        assert "# TYPE repro_process_uptime_seconds gauge" in text
        assert "repro_process_uptime_seconds" in text
        assert "repro_process_rss_bytes" in text

    def test_prometheus_renders_zero_valued_catalog_series(self):
        # A fresh registry has registered nothing; every cataloged series
        # must still render (zero-valued) so scrapes are shape-stable.
        fresh = metrics.Registry()
        text = fresh.render_prometheus()
        assert "repro_service_wal_syncs_total 0" in text
        assert "# HELP repro_engine_queries_total" in text
        assert "repro_obs_workload_shapes 0" in text
        assert 'repro_service_store_query_ms_bucket{le="+Inf"} 0' in text


# ----------------------------------------------- events + cluster scope


class TestEventsAndClusterScope:
    def test_debug_events_serves_the_local_ring(self, service):
        from repro.obs import events as obs_events

        obs_events.EVENTS.record("cluster.event.member_dead", shard_id=9)
        status, body = _json_request(service, "GET",
                                     "/debug/events?limit=500")
        assert status == 200
        assert body["enabled"] is True
        names = [event["event"] for event in body["events"]]
        assert "cluster.event.member_dead" in names
        assert body["counts"]["cluster.event.member_dead"] >= 1
        (recorded,) = [
            event for event in body["events"]
            if event["event"] == "cluster.event.member_dead"
            and event.get("shard_id") == 9
        ][:1]
        assert recorded["level"] == "info"
        assert recorded["ts"] > 0

    def test_debug_events_rejects_bad_limit(self, service):
        status, _ = _json_request(service, "GET",
                                  "/debug/events?limit=soon")
        assert status == 400

    def test_metrics_cluster_scope_needs_a_coordinator(self, service):
        # A standalone TemporalStore has no federated_metrics: explicit
        # 400, not a silent fall-through to the local registry.
        status, body = _json_request(service, "GET",
                                     "/metrics?scope=cluster")
        assert status == 400
        assert "coordinator" in body["error"]
