"""Zero-dependency span tracer with ``contextvars`` propagation.

A request entering the serving layer opens a *root span* via
:func:`start_trace`; every layer it flows through — admission control,
lock acquisition, cache lookup, compilation, index scans, joins, WAL
group commit — opens *child spans* via :func:`span`.  The active span
travels in a :class:`contextvars.ContextVar`, so nesting is implicit and
work handed to a thread pool keeps its parentage when submitted through
:func:`submit` (which copies the caller's context onto the worker).

Design points:

* **Context-manager only.** Spans are opened with ``with span(...):``;
  the begin/end pair is a single lexical scope, so a span can never leak
  open on an exception path.  No span object has a ``start`` or
  ``finish`` method to call instead.
* **Near-zero cost when off.** When observability is disabled
  (``REPRO_OBS=0`` / :func:`repro.obs.metrics.set_enabled`), when the
  sampler skips a request, or when code runs outside any trace,
  :func:`span` returns a shared no-op context manager: no allocation, no
  clock reads.
* **Deterministic ids and sampling.** Trace ids come from a process
  counter (``<pid hex>-<seq hex>``), and :class:`Sampler` uses a
  fraction accumulator rather than a PRNG, so tests can assert exact
  keep/skip sequences.
* **Bounded retention.** Finished traces land in a fixed-size
  :class:`TraceBuffer` ring; the server exposes it at
  ``GET /debug/traces``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from typing import TYPE_CHECKING, Any, Iterator

from . import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Executor, Future

__all__ = [
    "Span",
    "Trace",
    "TraceBuffer",
    "Sampler",
    "start_trace",
    "span",
    "active",
    "current_trace_id",
    "annotate",
    "annotate_trace",
    "submit",
    "export_spans",
    "graft_remote_trace",
]

#: Upper bound on spans a worker exports per RPC response.  Keeps the
#: attachment a bounded fraction of the reply frame even for scans that
#: open a span per leaf.
MAX_REMOTE_SPANS = 256

#: Monotonic per-process sequence feeding trace ids.
_TRACE_SEQ = itertools.count(1)

#: The span the current logical context is inside (None outside traces).
_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar(
    "repro_current_span", default=None
)


def _new_trace_id() -> str:
    return f"{os.getpid():x}-{next(_TRACE_SEQ):08x}"


class Span:
    """One timed operation in a trace tree.

    Spans are created internally by :func:`start_trace` / :func:`span`,
    whose context managers close them; a span has no public way to be
    started or finished by hand.
    """

    __slots__ = ("name", "trace", "parent", "children", "attrs",
                 "start_ms", "end_ms", "_t0")

    def __init__(self, name: str, trace: "Trace",
                 parent: "Span | None") -> None:
        self.name = name
        self.trace = trace
        self.parent = parent
        self.children: list[Span] = []
        self.attrs: dict[str, Any] = {}
        self.start_ms = (time.time() - trace.epoch) * 1000.0
        self.end_ms: float | None = None
        self._t0 = time.perf_counter()
        if parent is not None:
            with trace.lock:
                parent.children.append(self)

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def annotate(self, **attrs: Any) -> None:
        """Attach key/value attributes to this span."""
        self.attrs.update(attrs)

    def _close(self) -> None:
        self.end_ms = self.start_ms + (
            time.perf_counter() - self._t0
        ) * 1000.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
            "attrs": dict(self.attrs),
            "children": [c.as_dict() for c in self.children],
        }


class Trace:
    """A tree of spans plus trace-level attributes for one request."""

    __slots__ = ("trace_id", "name", "root", "attrs", "epoch", "lock",
                 "started_at")

    def __init__(self, name: str) -> None:
        self.trace_id = _new_trace_id()
        self.name = name
        self.attrs: dict[str, Any] = {}
        self.epoch = time.time()
        self.started_at = self.epoch
        self.lock = threading.Lock()
        self.root = Span(name, self, None)

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration_ms": round(self.duration_ms, 3),
            "attrs": dict(self.attrs),
            "root": self.root.as_dict(),
        }

    def span_names(self) -> list[str]:
        """Flat list of every span name in the tree (test helper)."""
        names: list[str] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            names.append(node.name)
            stack.extend(node.children)
        return names


class TraceBuffer:
    """Fixed-size ring of recently finished traces."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._items: list[Trace] = []

    def add(self, trace: Trace) -> None:
        with self._lock:
            self._items.append(trace)
            if len(self._items) > self.capacity:
                del self._items[: len(self._items) - self.capacity]

    def recent(self, limit: int = 20) -> list[Trace]:
        """The newest ``limit`` traces, newest first."""
        if limit <= 0:
            return []
        with self._lock:
            return list(reversed(self._items[-limit:]))

    def get(self, trace_id: str) -> Trace | None:
        with self._lock:
            for item in reversed(self._items):
                if item.trace_id == trace_id:
                    return item
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class Sampler:
    """Deterministic fraction sampler (no PRNG).

    Keeps requests whenever the running accumulator crosses 1.0, so a
    rate of ``0.25`` keeps exactly every 4th request and a rate of
    ``1.0`` keeps everything.  Deterministic sampling is reproducible in
    tests and spreads kept traces evenly instead of in random clumps.
    """

    def __init__(self, rate: float = 1.0) -> None:
        if not (0.0 <= rate <= 1.0):
            raise ValueError("sample rate must be within [0, 1]")
        self.rate = rate
        self._acc = 0.0
        self._lock = threading.Lock()

    def keep(self) -> bool:
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        with self._lock:
            self._acc += self.rate
            if self._acc >= 1.0:
                self._acc -= 1.0
                return True
            return False


class _NoopSpan:
    """Shared do-nothing context manager for untraced code paths."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


_NOOP = _NoopSpan()


@contextmanager
def _trace_cm(trace: Trace, buffer: TraceBuffer | None) -> Iterator[Trace]:
    token = _CURRENT_SPAN.set(trace.root)
    try:
        yield trace
    finally:
        _CURRENT_SPAN.reset(token)
        trace.root._close()
        if buffer is not None:
            buffer.add(trace)


@contextmanager
def _span_cm(parent: Span, name: str,
             attrs: dict[str, Any]) -> Iterator[Span]:
    child = Span(name, parent.trace, parent)
    if attrs:
        child.attrs.update(attrs)
    token = _CURRENT_SPAN.set(child)
    try:
        yield child
    finally:
        _CURRENT_SPAN.reset(token)
        child._close()


def start_trace(name: str, buffer: TraceBuffer | None = None,
                **attrs: Any):
    """Open a root span and install it as the current context.

    Returns a context manager yielding the :class:`Trace`; on exit the
    root span closes and the trace is appended to ``buffer`` (if given).
    When observability is disabled this is a no-op context manager and
    nothing is recorded.
    """
    if not _metrics.ENABLED:
        return _NOOP
    trace = Trace(name)
    if attrs:
        trace.attrs.update(attrs)
    return _trace_cm(trace, buffer)


def span(name: str, **attrs: Any):
    """Open a child span under the current context, if any.

    Outside a trace (or with observability disabled) this returns a
    shared no-op context manager, so instrumentation sites can call it
    unconditionally on hot paths.
    """
    if not _metrics.ENABLED:
        return _NOOP
    parent = _CURRENT_SPAN.get()
    if parent is None:
        return _NOOP
    return _span_cm(parent, name, attrs)


def active() -> bool:
    """Whether the calling context is inside a live trace."""
    return _metrics.ENABLED and _CURRENT_SPAN.get() is not None


def current_trace_id() -> str | None:
    """Trace id of the enclosing trace, or None outside any trace."""
    current = _CURRENT_SPAN.get()
    return None if current is None else current.trace.trace_id


def annotate(**attrs: Any) -> None:
    """Attach attributes to the *current span* (no-op outside traces)."""
    current = _CURRENT_SPAN.get()
    if current is not None and _metrics.ENABLED:
        current.attrs.update(attrs)


def annotate_trace(**attrs: Any) -> None:
    """Attach trace-level attributes (e.g. ``cache_hit=True``)."""
    current = _CURRENT_SPAN.get()
    if current is not None and _metrics.ENABLED:
        current.trace.attrs.update(attrs)


def submit(pool: "Executor", fn: Any, /, *args: Any,
           **kwargs: Any) -> "Future[Any]":
    """``pool.submit`` that carries the caller's trace context along.

    Workers see the submitting context's current span as their parent,
    so spans they open nest correctly under the request that scheduled
    the work.  Outside a trace this degrades to a plain ``submit`` with
    no context copy.
    """
    if not active():
        return pool.submit(fn, *args, **kwargs)
    ctx = copy_context()
    return pool.submit(ctx.run, fn, *args, **kwargs)


# --------------------------------------------------------------------------
# Cross-process stitching.
#
# A cluster worker traces its side of an RPC into a private Trace (opened
# by the dispatcher when the coordinator's payload carries a trace id).
# `export_spans` turns that finished subtree into a bounded plain-dict
# attachment for the response envelope; `graft_remote_trace` rebuilds it
# on the coordinator under the live `cluster.rpc` span, mapping worker
# wall-clock onto the coordinator's trace timeline via an NTP-style skew
# estimate from the four send/recv timestamps.


def export_spans(root: Span, limit: int = MAX_REMOTE_SPANS) -> dict[str, Any]:
    """Serialize a span subtree to a bounded wire-friendly dict.

    Depth-first, keeping at most ``limit`` spans; a node whose children
    overflow the budget gets a ``truncated`` count instead of the
    dropped subtrees.
    """
    budget = [limit]

    def encode(node: Span) -> dict[str, Any]:
        budget[0] -= 1
        out: dict[str, Any] = {
            "name": node.name,
            "start_ms": round(node.start_ms, 3),
            "duration_ms": round(node.duration_ms, 3),
        }
        if node.attrs:
            out["attrs"] = dict(node.attrs)
        children = []
        dropped = 0
        for child in node.children:
            if budget[0] <= 0:
                dropped += 1
                continue
            children.append(encode(child))
        if children:
            out["children"] = children
        if dropped:
            out["truncated"] = dropped
        return out

    return encode(root)


def _graft_node(parent: Span, node: dict[str, Any],
                shift_ms: float) -> Span:
    """Rebuild one exported span under ``parent``, shifted in time."""
    child = Span(str(node.get("name", "remote")), parent.trace, parent)
    attrs = node.get("attrs")
    if isinstance(attrs, dict):
        child.attrs.update(attrs)
    truncated = node.get("truncated")
    if truncated:
        child.attrs["truncated"] = truncated
    start = node.get("start_ms")
    duration = node.get("duration_ms")
    child.start_ms = shift_ms + (
        float(start) if isinstance(start, (int, float)) else 0.0
    )
    child.end_ms = child.start_ms + (
        float(duration) if isinstance(duration, (int, float)) else 0.0
    )
    for sub in node.get("children") or ():
        if isinstance(sub, dict):
            _graft_node(child, sub, shift_ms)
    return child


def graft_remote_trace(envelope: Any, *, sent_ts: float,
                       recv_ts: float) -> bool:
    """Attach a worker's exported span subtree under the current span.

    ``envelope`` is the attachment a worker put on its RPC response
    (see :func:`repro.cluster.protocol.encode_trace_envelope`);
    ``sent_ts``/``recv_ts`` are the coordinator's wall-clock times
    around the RPC.  The per-hop clock skew is estimated NTP-style as
    ``((t1 - t0) + (t2 - t3)) / 2`` from the coordinator send (t0),
    worker receive (t1), worker send (t2) and coordinator receive (t3)
    stamps, and is used to place the remote spans on the coordinator's
    timeline; the estimate and the network round-trip share are also
    annotated on the enclosing span.  Returns False (and grafts
    nothing) outside a live trace or for malformed envelopes.
    """
    if not _metrics.ENABLED:
        return False
    parent = _CURRENT_SPAN.get()
    if parent is None or not isinstance(envelope, dict):
        return False
    root = envelope.get("root")
    if not isinstance(root, dict):
        return False
    trace = parent.trace
    worker_recv = envelope.get("recv_ts")
    worker_send = envelope.get("send_ts")
    worker_epoch = envelope.get("epoch")
    skew_s = 0.0
    if (isinstance(worker_recv, (int, float))
            and isinstance(worker_send, (int, float))):
        skew_s = ((worker_recv - sent_ts) + (worker_send - recv_ts)) / 2.0
        net_ms = ((recv_ts - sent_ts) - (worker_send - worker_recv)) * 1000.0
        parent.annotate(clock_skew_ms=round(skew_s * 1000.0, 3),
                        net_ms=round(max(0.0, net_ms), 3))
    if isinstance(worker_epoch, (int, float)):
        shift_ms = (worker_epoch - skew_s - trace.epoch) * 1000.0
    else:
        # No worker epoch: anchor the subtree at our send time.
        shift_ms = (sent_ts - trace.epoch) * 1000.0
    grafted = _graft_node(parent, root, shift_ms)
    for key in ("shard_id", "role", "pid"):
        value = envelope.get(key)
        if value is not None:
            grafted.attrs[key] = value
    remote_id = envelope.get("trace_id")
    if remote_id is not None:
        grafted.attrs["remote_trace_id"] = remote_id
    return True
