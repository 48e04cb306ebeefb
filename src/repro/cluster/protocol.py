"""The coordinator <-> worker wire protocol, defined once.

Length-prefixed JSON frames over TCP: ``[u32 length][payload]`` where the
payload is one UTF-8 JSON object.  A request is ``{"op": name, ...}``, a
reply ``{"ok": true, ...}`` or ``{"ok": false, "error": msg, "kind": k}``.

Every op is declared below as a request dataclass parameterised by the
reply dataclass a worker answers it with; field names are the wire keys.
One codec (:func:`to_wire` / :func:`from_wire`) serves both ends, and one
table (:data:`ERRORS`) maps a worker-side exception to its ``kind`` and
back to the class the coordinator raises, so HTTP status mapping
(400/409) behaves exactly as in the single-process server.  Senders
construct messages by keyword and handlers read attributes, so a field
one side renames is an error at that line rather than a convention to
police.

Every read, a forwarded query or a star sub-query alike, crosses as
SPARQLT text in one op, ``query``.  This module also carries the
serialization helpers the codec calls for result rows (temporal bindings
as ``[[start, end|null], ...]``, matching the HTTP layer).
"""

from __future__ import annotations

import functools
import json
import os
import socket
import struct
from dataclasses import MISSING, dataclass, field, fields
from typing import (TYPE_CHECKING, Any, Callable, ClassVar, Generic, TypeVar,
                    get_args)

from ..model.time import NOW, Period, PeriodSet, encode_value
from ..mvbt.tree import DuplicateKeyError, TimeOrderError
from ..service.sanitizer import check_blocking
from ..service.store import StoreError
from ..sparqlt.errors import SparqltError
from ..sparqlt.parser import parse, unparse

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.trace import Trace

_LEN = struct.Struct(">I")

#: Largest accepted frame (64 MiB), mirroring the HTTP body cap.
MAX_FRAME = 64 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed or truncated frame on the cluster socket."""


class FrameTooLarge(StoreError):
    """A frame over :data:`MAX_FRAME`, refused before a byte is written.

    Not a :class:`ProtocolError`: the connection and the peer are both
    fine, so the sender reports the size instead of failing over.
    """


def send_message(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame."""
    check_blocking("protocol.send_message")
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME:
        raise FrameTooLarge(
            f"frame too large: {len(data)} bytes (cap {MAX_FRAME})"
        )
    sock.sendall(_LEN.pack(len(data)) + data)


def recv_message(sock: socket.socket) -> dict[str, Any]:
    """Read one length-prefixed JSON frame (raises on EOF/truncation)."""
    check_blocking("protocol.recv_message")
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame too large: {length} bytes")
    data = _recv_exact(sock, length)
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"bad frame payload: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return payload


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ------------------------------------------------------------- result rows


def decode_value(value: Any) -> Any:
    """Inverse of :func:`~repro.model.time.encode_value` (lists become
    PeriodSets)."""
    if isinstance(value, list):
        return PeriodSet(
            Period(start, NOW if end is None else end)
            for start, end in value
        )
    return value


def encode_row(row: dict[str, Any]) -> dict[str, Any]:
    return {name: encode_value(value) for name, value in row.items()}


def decode_row(row: dict[str, Any]) -> dict[str, Any]:
    return {name: decode_value(value) for name, value in row.items()}


# --------------------------------------------------------- trace envelopes
#
# When a request carries the coordinator's ``trace_id``, the worker
# traces its side of the op and rides the finished, size-bounded span
# subtree back on the success reply's ``trace`` field.  The client takes
# the attachment off the reply and grafts the subtree under its live
# ``cluster.rpc`` span (see :func:`repro.obs.trace.graft_remote_trace`),
# which uses the ``recv_ts``/``send_ts`` stamps for the per-hop
# clock-skew estimate.


def encode_trace_envelope(trace: Trace, *, shard_id: int, role: str,
                          recv_ts: float, send_ts: float) -> dict[str, Any]:
    """Serialize a worker-side finished trace for the response envelope."""
    from ..obs import trace as _trace

    return {
        "trace_id": trace.trace_id,
        "shard_id": shard_id,
        "role": role,
        "pid": os.getpid(),
        "epoch": trace.epoch,
        "recv_ts": recv_ts,
        "send_ts": send_ts,
        "root": _trace.export_spans(trace.root),
    }


# ------------------------------------------------------------------ queries
#
# A shard answers every read from its own text: the coordinator renders a
# parsed query or a star sub-query once, and the shard's store caches
# the plan and the result under that text like any other query's.

#: a parsed query -> the text a :class:`Query` request carries.
encode_query = unparse
#: the text a :class:`Query` request carries -> the parsed query.
decode_query = parse


# ----------------------------------------------------------------- messages
#
# Field names are the wire keys.  A field with a default is optional on
# the wire — left off at its default, filled back in on decode — which is
# how the envelope fields and ``Events.limit`` travel; every other
# field must be present, and no key the class does not declare may be.

R = TypeVar("R", bound="Reply")
M = TypeVar("M", bound="Request[Any] | Reply")

#: op name -> request class, filled in as the classes below are declared.
REQUESTS: dict[str, type[Request[Any]]] = {}


def _each(convert: Callable[[Any], Any]) -> Callable[[Any], list[Any]]:
    return lambda items: [convert(item) for item in items]


def _via(encode: Callable[[Any], Any],
         decode: Callable[[Any], Any]) -> dict[str, Any]:
    """Field metadata: the value crosses the wire through these two."""
    return {"wire": (encode, decode)}


@dataclass(frozen=True, slots=True, kw_only=True)
class Reply:
    """A success reply; the base holds the envelope."""

    #: a traced worker's exported spans (see "trace envelopes" above).
    trace: dict[str, Any] | None = None


@dataclass(frozen=True, slots=True, kw_only=True)
class Request(Generic[R]):
    """A request, answered with an ``R``; the base holds the envelope."""

    op: ClassVar[str]
    reply: ClassVar[type[Reply]]
    #: the coordinator's trace id; the worker then traces its side.
    trace_id: str | None = None
    #: reads: the cluster-wide NOW horizon live periods are clipped at.
    horizon: int = 0

    def __init_subclass__(cls) -> None:
        # ``reply`` is the R of the ``Request[R]`` the class names as its
        # base.  dataclass(slots=True) builds every class twice; the
        # second, final one replaces the first in the registry.
        (base,) = cls.__dict__["__orig_bases__"]
        (cls.reply,) = get_args(base)
        REQUESTS[cls.op] = cls


@dataclass(frozen=True, slots=True, kw_only=True)
class Ack(Reply):
    """Done; nothing to report."""


@dataclass(frozen=True, slots=True, kw_only=True)
class StatusReply(Reply):
    """Where a member stands: role, applied LSN, size, horizon."""
    role: str
    shard_id: int
    revision: int
    live_facts: int
    horizon: int
    pid: int


@dataclass(frozen=True, slots=True, kw_only=True)
class RowsReply(Reply):
    """A query's bindings, decoded, with the revision they reflect."""
    variables: list[str]
    rows: list[dict[str, Any]] = field(
        metadata=_via(_each(encode_row), _each(decode_row)))
    revision: int


@dataclass(frozen=True, slots=True, kw_only=True)
class UpdateReply(Reply):
    """The update's LSN and the member's revision after it."""
    lsn: int
    revision: int


@dataclass(frozen=True, slots=True, kw_only=True)
class LoadReply(Reply):
    """What the bulk load left: live facts and the NOW horizon."""
    live_facts: int
    horizon: int


@dataclass(frozen=True, slots=True, kw_only=True)
class RevisionReply(Reply):
    """Done; the member's applied LSN afterwards."""
    revision: int


@dataclass(frozen=True, slots=True, kw_only=True)
class RefreshStatsReply(Reply):
    """Whether the statistics were rebuilt."""
    refreshed: bool


@dataclass(frozen=True, slots=True, kw_only=True)
class MetricsReply(Reply):
    """A metrics registry snapshot."""
    #: False (with empty ``metrics``) under REPRO_OBS=0.
    enabled: bool
    metrics: dict[str, Any]
    role: str
    revision: int


@dataclass(frozen=True, slots=True, kw_only=True)
class EventsReply(Reply):
    """Recent cluster events, newest first."""
    events: list[dict[str, Any]]


@dataclass(frozen=True, slots=True, kw_only=True)
class Ping(Request[Ack]):
    """Liveness probe."""
    op: ClassVar[str] = "ping"


@dataclass(frozen=True, slots=True, kw_only=True)
class Status(Request[StatusReply]):
    """Role, applied LSN, live facts, horizon, pid."""
    op: ClassVar[str] = "status"


@dataclass(frozen=True, slots=True, kw_only=True)
class Query(Request[RowsReply]):
    """Evaluate SPARQLT text on this member's full engine."""
    op: ClassVar[str] = "query"
    text: str

    def __post_init__(self) -> None:
        if not isinstance(self.text, str) or not self.text.strip():
            raise ValueError("missing 'text' string")


@dataclass(frozen=True, slots=True, kw_only=True)
class Update(Request[UpdateReply]):
    """Apply one insert or delete."""
    op: ClassVar[str] = "update"
    update: str  # "insert" | "delete"
    subject: str
    predicate: str
    object: str
    time: int

    def __post_init__(self) -> None:
        if self.update not in ("insert", "delete"):
            raise ValueError(f"bad update op: {self.update!r}")


@dataclass(frozen=True, slots=True, kw_only=True)
class Load(Request[LoadReply]):
    """Bulk-load ``[subject, predicate, object, start, end|null]`` rows."""
    op: ClassVar[str] = "load"
    rows: list[list[Any]]


@dataclass(frozen=True, slots=True, kw_only=True)
class Checkpoint(Request[RevisionReply]):
    """Snapshot, then truncate the WAL."""
    op: ClassVar[str] = "checkpoint"


@dataclass(frozen=True, slots=True, kw_only=True)
class RefreshStats(Request[RefreshStatsReply]):
    """Rebuild the optimizer's statistics now."""
    op: ClassVar[str] = "refresh_stats"


@dataclass(frozen=True, slots=True, kw_only=True)
class Metrics(Request[MetricsReply]):
    """This member's metrics registry snapshot."""
    op: ClassVar[str] = "metrics"


@dataclass(frozen=True, slots=True, kw_only=True)
class Events(Request[EventsReply]):
    """This member's recent cluster events, newest first."""
    op: ClassVar[str] = "events"
    limit: int = 100


# -------------------------------------------------------------------- codec


@functools.cache
def _layout(
    cls: type[Request[Any]] | type[Reply],
) -> tuple[tuple[str, Any, Any, Any], ...]:
    """``(name, default | MISSING, encode, decode)`` per declared field."""
    layout = []
    for spec in fields(cls):
        encode, decode = spec.metadata.get("wire", (None, None))
        layout.append((spec.name, spec.default, encode, decode))
    return tuple(layout)


def to_wire(message: Request[Any] | Reply) -> dict[str, Any]:
    """A message -> its frame payload."""
    wire: dict[str, Any] = (
        {"op": message.op} if isinstance(message, Request) else {"ok": True}
    )
    for name, default, encode, _ in _layout(type(message)):
        value = getattr(message, name)
        if value != default:  # MISSING (no default) equals no value
            wire[name] = value if encode is None else encode(value)
    return wire


def from_wire(cls: type[M], wire: dict[str, Any]) -> M:
    """A frame payload -> the ``cls`` it must be, or ``ValueError``.

    Strict both ways: a missing required field, a key ``cls`` does not
    declare and a value its decoder rejects are all bad requests, so
    nothing half-formed reaches a handler.
    """
    values = {}
    for name, default, _, decode in _layout(cls):
        if name in wire:
            try:
                values[name] = (
                    wire[name] if decode is None else decode(wire[name])
                )
            except (KeyError, TypeError, ProtocolError) as error:
                raise ValueError(
                    f"{cls.__name__}: bad field {name!r}: {error}"
                ) from error
        elif default is MISSING:
            raise ValueError(f"{cls.__name__}: missing field {name!r}")
    extra = sorted(wire.keys() - values.keys() - {"op", "ok"})
    if extra:
        raise ValueError(f"{cls.__name__}: unexpected field(s) {extra}")
    return cls(**values)


def decode_request(wire: dict[str, Any]) -> Request[Any]:
    """The worker's half of :func:`from_wire`: pick the class by op."""
    op = wire.get("op")
    cls = REQUESTS.get(op) if isinstance(op, str) else None
    if cls is None:
        raise ValueError(f"unknown op: {op!r}")
    return from_wire(cls, wire)


# ------------------------------------------------------------------- errors


#: ``(kind, raised coordinator-side, reported under it worker-side)``.
#: A worker answers any exception listed here with an error reply of the
#: first matching row's kind (TimeError is a ValueError; a
#: :class:`FrameTooLarge` is a StoreError) and lets anything else
#: propagate; the coordinator raises the row's class with the same
#: message, :class:`StoreError` for a kind it does not know.
ERRORS: tuple[
    tuple[str, type[Exception], tuple[type[Exception], ...]], ...
] = (
    ("bad_request", ValueError, (SparqltError, ValueError)),
    ("conflict_duplicate", DuplicateKeyError, (DuplicateKeyError,)),
    ("conflict_time", TimeOrderError, (TimeOrderError,)),
    ("conflict_missing", KeyError, (KeyError,)),
    ("internal", StoreError, (StoreError, ProtocolError, OSError)),
)

#: Every class a worker reports over the wire.
WIRE_ERRORS = tuple(cls for _, _, caught in ERRORS for cls in caught)


def error_to_wire(error: Exception) -> dict[str, Any]:
    kind = next(k for k, _, caught in ERRORS if isinstance(error, caught))
    message = str(error)
    if isinstance(error, KeyError) and len(error.args) == 1:
        # str() of a KeyError quotes its key: send the message itself.
        message = str(error.args[0])
    return {"ok": False, "error": message, "kind": kind}


def error_from_wire(wire: dict[str, Any]) -> Exception:
    kind = wire.get("kind")
    raised = next((cls for k, cls, _ in ERRORS if k == kind), StoreError)
    return raised(wire.get("error", "worker error"))
