"""HTTP SPARQLT endpoint over a :class:`~repro.service.store.TemporalStore`.

A stdlib-only serving layer: a ``socketserver.ThreadingTCPServer`` with
one thread per connection, each reading HTTP/1.1 requests off its socket
in a keep-alive loop.  The loop is written here rather than taken from
``http.server``, which imports ``http.client`` and through it ``ssl``
(libssl, libcrypto) and the ``email`` header parser into the serving
process for nothing: this server never speaks TLS (put a proxy in front
for that).  What it accepts —

* a request line of at most 64 KiB (longer: **414**), then at most 100
  header lines of at most 64 KiB each (**431**), ``http.server``'s own
  limits; a malformed line is **400** and an HTTP version other than
  1.x is **505**;
* ``GET`` and ``POST`` only, with a body framed by ``Content-Length``, a
  decimal of at most 64 MiB (**413** above it); ``Transfer-Encoding``
  (chunked bodies) and any other method are **501**;
* ``Expect: 100-continue``, answered before the body is read.

A refused request is answered and its connection closed.  ``Connection:
close``, or HTTP/1.0 without ``keep-alive``, closes after the response.

Admission control sits on top of the transport —

* a bounded semaphore caps in-flight requests (``max_inflight``); a full
  server answers **503** instead of queueing unboundedly, and
* each admitted request runs on a worker pool with a deadline
  (``request_timeout``); overruns answer **504** (the worker finishes in
  the background — the MVBT readers are safe to abandon).

Endpoints::

    GET  /healthz       liveness + store revision / live fact count
                        + process uptime / RSS (a coordinator: its
                        topology, and 503 while a shard is down)
    GET  /metrics       the obs registry (JSON; ?format=text for humans,
                        Prometheus text when Accept: text/plain);
                        ?scope=cluster federates every member's registry
                        behind a coordinator (labeled per shard/role)
    GET  /debug/traces  recent request traces (?id=<trace_id> for the
                        full span tree, ?limit=N for the listing)
    GET  /debug/events  the cluster event ring (worker start-ups and
                        deaths), merged across members on a coordinator
    GET  /debug/workload  per-shape query aggregates (?limit=N)
    GET  /debug/storage   MVBT / dictionary / WAL / cache health report
    POST /query         {"query": "...", "profile": false} -> rows
    POST /update        {"op": "insert"|"delete", "subject": ..., ...}
                        or {"updates": [...]} for a batch
    POST /checkpoint    snapshot + WAL truncation

A ``limit`` on the ``/debug/*`` listings must be an integer >= 1 (else
**400**).

Every sampled POST carries a ``trace_id`` in its response; the matching
span tree (admission wait, lock waits, cache lookup, compile, scans,
joins, WAL commit) is retrievable from ``/debug/traces`` while it stays
in the ring buffer.  Requests slower than ``--slow-ms`` additionally log
their full span tree through the structured logger.

Temporal bindings serialize as ``[[start, end|null], ...]`` — ``null``
marks a still-live period (the paper's *NOW*).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import os
import re
import socketserver
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from http import HTTPStatus
from urllib.parse import urlparse, parse_qs

from ..model.time import TimeError, date_to_chronon, encode_value
from ..mvbt.tree import DuplicateKeyError, TimeOrderError
from ..obs import events as _events
from ..obs import federation as _federation
from ..obs import introspect as _introspect
from ..obs import log as _obslog
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs import workload as _workload
from ..sparqlt.errors import SparqltError
from .store import StoreError, TemporalStore

_REQUESTS = _metrics.counter("service.server.requests")
_REJECTED = _metrics.counter("service.server.rejected")
_TIMEOUTS = _metrics.counter("service.server.timeouts")
_ERRORS = _metrics.counter("service.server.errors")
_REQUEST_HIST = _metrics.histogram("service.server.request_ms")
_UPTIME = _metrics.gauge("process.uptime_seconds")
_RSS = _metrics.gauge("process.rss_bytes")

#: Shape of the trace ids :mod:`repro.obs.trace` mints (pid-seq hex); a
#: lookup that cannot match gets 400, a well-formed miss gets 404.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]+-[0-9a-f]{8,}$")

_LOG = logging.getLogger("repro.service.server")

#: Per-process sequence feeding unexpected-failure error ids, so a client
#: 500 can be matched to the logged traceback.
_ERROR_SEQ = itertools.count(1)

#: Largest accepted request body (64 MiB).
_MAX_BODY = 64 * 1024 * 1024

#: Longest request or header line, and most header lines per request —
#: the limits ``http.server`` applies.
_MAX_LINE = 64 * 1024
_MAX_HEADERS = 100

_VERSION_RE = re.compile(r"HTTP/([0-9]{1,9})\.([0-9]{1,9})")
#: A header name is an RFC 9110 token, so an obsolete folded line (which
#: starts with whitespace) is malformed too.
_TOKEN_RE = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")


class ServiceUnavailable(Exception):
    """Raised internally when admission control rejects a request."""


class _Refused(Exception):
    """A request the transport will not serve: answered with ``status``,
    then its connection is closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse_time(value) -> int:
    """An update's time: a chronon int or an ISO date string."""
    if isinstance(value, bool):
        raise ValueError(f"bad time value: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return date_to_chronon(value)
    raise ValueError(f"bad time value: {value!r}")


class TemporalService(socketserver.ThreadingTCPServer):
    """The HTTP server; owns the store and the admission machinery."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        store: TemporalStore,
        address: tuple[str, int] = ("127.0.0.1", 0),
        *,
        max_inflight: int = 8,
        request_timeout: float | None = 30.0,
        admission_timeout: float = 0.05,
        trace_sample: float = 1.0,
        slow_ms: float | None = None,
        trace_capacity: int = 128,
        role: str = "standalone",
        shard_id: int | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.store = store
        #: this process's place in a cluster topology, reported by
        #: /healthz: "standalone", "coordinator" or "shard".
        self.role = role
        self.shard_id = shard_id
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        #: how long a request waits for an admission slot before 503.
        self.admission_timeout = admission_timeout
        #: fraction of POST requests that record a full trace.
        self.sampler = _trace.Sampler(trace_sample)
        #: requests slower than this (ms) log their span tree; None = off.
        self.slow_ms = slow_ms
        #: ring of recently finished traces, served at /debug/traces.
        self.traces = _trace.TraceBuffer(trace_capacity)
        self._slots = threading.BoundedSemaphore(max_inflight)
        self._pool = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-serve"
        )

    @property
    def port(self) -> int:
        return self.server_address[1]

    @contextlib.contextmanager
    def admitted(self):
        """Acquire an in-flight slot or raise :class:`ServiceUnavailable`."""
        with _trace.span("admission.wait"):
            admitted = self._slots.acquire(timeout=self.admission_timeout)
        if not admitted:
            raise ServiceUnavailable
        try:
            yield
        finally:
            self._slots.release()

    def run_with_deadline(self, fn):
        """Run ``fn`` on the pool, bounded by ``request_timeout``.

        The submission carries the caller's trace context, so spans the
        worker opens nest under this request's root span.
        """
        future = _trace.submit(self._pool, fn)
        try:
            return future.result(timeout=self.request_timeout)
        except FutureTimeoutError:
            raise

    def shutdown(self) -> None:
        super().shutdown()
        self._pool.shutdown(wait=False)


class _Handler(socketserver.StreamRequestHandler):
    # Nagle + delayed ACK costs ~40 ms per keep-alive round trip; small
    # JSON responses want the segment pushed immediately.
    disable_nagle_algorithm = True
    server: TemporalService

    # -------------------------------------------------------------- transport

    def handle(self) -> None:
        """Serve requests on this connection until either side closes it."""
        try:
            while self._read_request():
                if self.command == "GET":
                    self.do_GET()
                else:
                    self.do_POST()
                if self.close_connection:
                    return
        except _Refused as refused:
            # Malformed requests go through the structured logger at debug
            # level, so they are recoverable with --log-level debug.
            _obslog.LOGGER.debug("http_server", status=refused.status,
                                 message=str(refused))
            self.close_connection = True
            with contextlib.suppress(ConnectionError):
                self._send_error(refused.status, str(refused))
        except ConnectionError as error:
            _obslog.LOGGER.debug("http_server", message=repr(error))

    def _read_request(self) -> bool:
        """Read one request into ``command``, ``path``, ``headers`` (names
        lower-cased) and ``body``; False when the client has gone."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refused(414, "request line too long")
        if not line.strip():
            return False
        words = line.decode("latin-1").split()
        if len(words) != 3:
            raise _Refused(400, f"malformed request line {line[:100]!r}")
        self.command, self.path, version = words
        match = _VERSION_RE.fullmatch(version)
        if match is None:
            raise _Refused(400, f"malformed HTTP version {version[:100]!r}")
        if match[1] != "1":
            raise _Refused(505, f"unsupported HTTP version {version!r}")
        http_1_0 = int(match[2]) == 0

        self.headers = headers = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise _Refused(431, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not _TOKEN_RE.fullmatch(name):
                raise _Refused(400, f"malformed header line {line[:100]!r}")
            name, value = name.lower(), value.strip()
            # a repeated field is one comma-separated list (RFC 9110 5.3)
            headers[name] = (f"{headers[name]}, {value}"
                             if name in headers else value)
        else:
            raise _Refused(431, f"more than {_MAX_HEADERS} header lines")

        if "transfer-encoding" in headers:
            raise _Refused(501, "Transfer-Encoding is not supported; "
                                "send a Content-Length")
        if self.command not in ("GET", "POST"):
            raise _Refused(501, f"unsupported method {self.command[:100]!r}")
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _Refused(400, f"bad Content-Length {length[:100]!r}")
        # digits counted first: int() refuses strings over 4 300 digits
        if len(length) > len(str(_MAX_BODY)) or int(length) > _MAX_BODY:
            raise _Refused(413, f"request body over {_MAX_BODY} bytes")
        length = int(length)

        connection = {token.strip().lower()
                      for token in headers.get("connection", "").split(",")}
        self.close_connection = "close" in connection or (
            http_1_0 and "keep-alive" not in connection)
        if (not http_1_0
                and headers.get("expect", "").lower() == "100-continue"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.body = self.rfile.read(length) if length else b""
        return len(self.body) == length

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n")
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, "application/json",
                   json.dumps(payload).encode("utf-8"))

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> dict:
        if not self.body:
            raise ValueError("empty request body")
        payload = json.loads(self.body)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # ----------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        if _metrics.ENABLED:
            _REQUESTS.inc()
        # GETs serve monitoring endpoints; debug level keeps scrape
        # polling out of the default access log.
        _obslog.LOGGER.debug("http_access", method="GET", path=parsed.path)
        if parsed.path == "/healthz":
            store = self.server.store
            try:
                live_facts = store.live_facts
            except StoreError:  # a coordinator's shard is down
                live_facts = None
            payload = {
                "status": "ok",
                "role": self.server.role,
                "shard_id": self.server.shard_id,
                "revision": store.revision,
                "applied_lsn": store.revision,
                "live_facts": live_facts,
                "cached_results": store.cached_results,
                "uptime_seconds": round(
                    _introspect.process_uptime_seconds(), 3
                ),
                "rss_bytes": _introspect.process_rss_bytes(),
            }
            # A ClusterStore duck-types TemporalStore and adds a
            # topology report; surface it so `repro-tx cluster-status`
            # needs nothing beyond /healthz.  A dead shard makes it a 503
            # that still carries the topology, that member `alive: false`.
            cluster_status = getattr(store, "cluster_status", None)
            if cluster_status is not None:
                payload["cluster"] = cluster_status()
                if live_facts is None or not all(
                        member["primary"]["alive"]
                        for member in payload["cluster"]["members"]):
                    payload["status"] = "degraded"
            self._send_json(200 if payload["status"] == "ok" else 503,
                            payload)
        elif parsed.path == "/metrics":
            if _metrics.ENABLED:
                _UPTIME.set(_introspect.process_uptime_seconds())
                rss = _introspect.process_rss_bytes()
                if rss is not None:
                    _RSS.set(rss)
            query = parse_qs(parsed.query)
            accept = self.headers.get("accept", "")
            if query.get("scope") == ["cluster"]:
                self._handle_cluster_metrics(query, accept)
            elif query.get("format") == ["text"]:
                self._send_text(_metrics.REGISTRY.render_text())
            elif (query.get("format") == ["prometheus"]
                  or "text/plain" in accept):
                # Standard scrapers send Accept: text/plain...; JSON
                # stays the default for everything else.
                self._send_text(_metrics.REGISTRY.render_prometheus())
            else:
                self._send_json(200, _metrics.REGISTRY.snapshot())
        elif parsed.path == "/debug/traces":
            self._handle_traces(parse_qs(parsed.query))
        elif parsed.path == "/debug/events":
            self._handle_events(parse_qs(parsed.query))
        elif parsed.path == "/debug/workload":
            self._handle_workload(parse_qs(parsed.query))
        elif parsed.path == "/debug/storage":
            self._send_json(200, self.server.store.storage_report())
        else:
            self._send_error(404, f"no such endpoint: {parsed.path}")

    def _send_text(self, body_text: str, status: int = 200) -> None:
        self._send(status, "text/plain; charset=utf-8",
                   body_text.encode("utf-8"))

    def _limit(self, query: dict, default: int) -> int | None:
        """The listing's ``?limit=``, or None once a 400 has been sent
        for a value that is not an integer >= 1."""
        raw = query.get("limit", [str(default)])[0]
        try:
            limit = int(raw)
        except ValueError:
            limit = 0
        if limit < 1:
            self._send_error(400, f"bad 'limit' value {raw[:100]!r}: "
                                  "want an integer >= 1")
            return None
        return limit

    def _handle_cluster_metrics(self, query: dict, accept: str) -> None:
        """``/metrics?scope=cluster``: the coordinator's federated pull."""
        federated_metrics = getattr(
            self.server.store, "federated_metrics", None
        )
        if federated_metrics is None:
            self._send_error(
                400, "scope=cluster requires a cluster coordinator"
            )
            return
        force = query.get("force") == ["1"]
        try:
            federated = federated_metrics(force=force)
        except StoreError as error:
            self._send_error(409, str(error))
            return
        if (query.get("format") == ["prometheus"]
                or "text/plain" in accept):
            self._send_text(
                _federation.render_prometheus_cluster(federated)
            )
        else:
            self._send_json(200, federated)

    def _handle_events(self, query: dict) -> None:
        """``/debug/events``: the event ring (cluster-merged when the
        store is a coordinator)."""
        limit = self._limit(query, 100)
        if limit is None:
            return
        cluster_events = getattr(self.server.store, "cluster_events", None)
        if cluster_events is not None:
            try:
                events = cluster_events(limit=limit)
            except StoreError as error:
                self._send_error(409, str(error))
                return
        else:
            events = _events.EVENTS.recent(limit)
        self._send_json(200, {
            "enabled": _metrics.ENABLED,
            "events": events,
            "counts": _events.EVENTS.counts(),
        })

    def _handle_traces(self, query: dict) -> None:
        trace_id = query.get("id", [None])[0]
        if trace_id is not None:
            if not _TRACE_ID_RE.match(trace_id):
                # Distinguish "can never exist" from "already evicted":
                # a malformed id is a caller bug, not a cache miss.
                self._send_error(400, f"malformed trace id: {trace_id}")
                return
            found = self.server.traces.get(trace_id)
            if found is None:
                self._send_error(404, f"no such trace: {trace_id}")
            else:
                self._send_json(200, found.as_dict())
            return
        limit = self._limit(query, 20)
        if limit is None:
            return
        listing = [
            {
                "trace_id": t.trace_id,
                "name": t.name,
                "started_at": t.started_at,
                "duration_ms": round(t.duration_ms, 3),
                "attrs": dict(t.attrs),
            }
            for t in self.server.traces.recent(limit)
        ]
        self._send_json(200, {"traces": listing})

    def _handle_workload(self, query: dict) -> None:
        limit = self._limit(query, 50)
        if limit is None:
            return
        snap = _workload.WORKLOAD.snapshot(limit=limit)
        snap["enabled"] = _metrics.ENABLED
        self._send_json(200, snap)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        import time as _time

        started = _time.perf_counter()
        if _metrics.ENABLED:
            _REQUESTS.inc()
        path = urlparse(self.path).path
        status, payload, trace = self._answer(path)
        # Observed before the response is written: a client that has read
        # its answer finds its request counted.
        elapsed_ms = (_time.perf_counter() - started) * 1000.0
        if _metrics.ENABLED:
            _REQUEST_HIST.observe(elapsed_ms)
        try:
            self._send_json(status, payload)
        finally:
            self._finish_request(path, status, elapsed_ms, trace)

    def _answer(self, path: str) -> tuple[int, dict, _trace.Trace | None]:
        """A POST's status, response payload and trace (None when it was
        not sampled or never reached a handler)."""
        handler = {
            "/query": self._handle_query,
            "/update": self._handle_update,
            "/checkpoint": self._handle_checkpoint,
        }.get(path)
        if handler is None:
            return 404, {"error": f"no such endpoint: {path}"}, None
        try:
            request = self._read_body() if path != "/checkpoint" else {}
        except (ValueError, json.JSONDecodeError) as error:
            return 400, {"error": f"bad request body: {error}"}, None
        if _metrics.ENABLED and self.server.sampler.keep():
            trace_cm = _trace.start_trace(
                f"POST {path}", self.server.traces, path=path
            )
        else:
            trace_cm = contextlib.nullcontext()
        trace = None
        try:
            with trace_cm as opened:
                if isinstance(opened, _trace.Trace):
                    trace = opened
                with self.server.admitted():
                    payload = self.server.run_with_deadline(
                        lambda: handler(request)
                    )
                if trace is not None:
                    payload["trace_id"] = trace.trace_id
            return 200, payload, trace
        except ServiceUnavailable:
            if _metrics.ENABLED:
                _REJECTED.inc()
            payload = {"error": "server saturated, retry later"}
            if trace is not None:
                # The trace names the victim: its admission.wait span
                # shows how long the request queued before rejection.
                payload["trace_id"] = trace.trace_id
            return 503, payload, trace
        except FutureTimeoutError:
            if _metrics.ENABLED:
                _TIMEOUTS.inc()
            payload = {"error": "request deadline exceeded"}
            if trace is not None:
                payload["trace_id"] = trace.trace_id
            return 504, payload, trace
        except (SparqltError, ValueError, TimeError) as error:
            return 400, {"error": str(error)}, trace
        except (DuplicateKeyError, TimeOrderError, KeyError,
                StoreError) as error:
            return 409, {"error": str(error)}, trace
        except Exception:
            # Defensive boundary: never kill the connection thread, but
            # never swallow the traceback either — log it under an error
            # id the client can quote back.
            error_id = f"{os.getpid():x}-{next(_ERROR_SEQ):06x}"
            _LOG.exception("request %s failed (error id %s)", path, error_id)
            if _metrics.ENABLED:
                _ERRORS.inc()
            return 500, {
                "error": "internal error; see server log",
                "error_id": error_id,
            }, trace

    def _finish_request(self, path: str, status: int, elapsed_ms: float,
                        trace) -> None:
        """Access log + slow-query log for a finished POST."""
        if trace is not None:
            trace.attrs["status"] = status
        cache_hit = trace.attrs.get("cache_hit") if trace else None
        _obslog.LOGGER.info(
            "http_access",
            method="POST",
            path=path,
            status=status,
            duration_ms=round(elapsed_ms, 3),
            trace_id=trace.trace_id if trace else None,
            cache_hit=cache_hit,
        )
        slow_ms = self.server.slow_ms
        if (trace is not None and slow_ms is not None
                and elapsed_ms >= slow_ms):
            _obslog.LOGGER.warning(
                "slow_query",
                path=path,
                status=status,
                duration_ms=round(elapsed_ms, 3),
                trace_id=trace.trace_id,
                threshold_ms=slow_ms,
                trace=trace.as_dict(),
            )

    # ---------------------------------------------------------- POST bodies

    def _handle_query(self, payload: dict) -> dict:
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            raise ValueError("missing 'query' string")
        result = self.server.store.query(
            text, profile=bool(payload.get("profile"))
        )
        response = {
            "variables": result.variables,
            "rows": [
                {name: encode_value(value) for name, value in row.items()}
                for row in result.rows
            ],
            "revision": result.revision,
        }
        if result.profile is not None:
            response["profile"] = result.profile.to_dict()
        return response

    def _handle_update(self, payload: dict) -> dict:
        updates = payload.get("updates")
        if updates is None:
            updates = [payload]
        if not isinstance(updates, list) or not updates:
            raise ValueError("'updates' must be a non-empty list")
        store = self.server.store
        last_lsn = None
        for update in updates:
            if not isinstance(update, dict):
                raise ValueError("each update must be a JSON object")
            op = update.get("op")
            if op not in ("insert", "delete"):
                raise ValueError(f"bad op: {op!r}")
            terms = []
            for field in ("subject", "predicate", "object"):
                term = update.get(field)
                if not isinstance(term, str) or not term:
                    raise ValueError(f"missing '{field}' string")
                terms.append(term)
            time = _parse_time(update.get("time"))
            if op == "insert":
                last_lsn = store.insert(*terms, time)
            else:
                last_lsn = store.delete(*terms, time)
        return {"applied": len(updates), "revision": last_lsn}

    def _handle_checkpoint(self, payload: dict) -> dict:
        path = self.server.store.checkpoint()
        return {"snapshot": str(path),
                "revision": self.server.store.revision}


def serve(
    store: TemporalStore,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs,
) -> TemporalService:
    """Create a service bound to ``host:port`` (not yet serving).

    Call ``serve_forever()`` on the result (or run it on a thread); the
    bound port is ``service.port`` — useful with ``port=0`` in tests.
    """
    return TemporalService(store, (host, port), **kwargs)
