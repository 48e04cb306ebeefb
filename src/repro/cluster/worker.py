"""The shard / replica worker process.

One worker per topology member, a plain ``python -c`` subprocess running
:func:`main` — never the launching script.  Its config arrives as one
JSON line on stdin, its ready report leaves as one on stdout, and stdin
stays open as a lifeline: EOF (a closing or dead coordinator) stops it.
Each worker owns a private directory with a full
:class:`~repro.service.store.TemporalStore` — engine, WAL, snapshots —
and answers the :mod:`repro.cluster.protocol` ops on a loopback TCP
socket (``ThreadingTCPServer``: concurrent reads ride the store's
readers-writer lock exactly as in the single-process server).

Replicas additionally run a tail thread that polls the primary's
``wal_since`` op and applies shipped records through
:meth:`~repro.service.store.TemporalStore.apply_replicated`.  Two
recovery paths keep a follower convergent:

* **Resync** — on a replication gap (the primary checkpointed and
  truncated records the follower never saw), or on an explicit ``resync``
  op (bulk loads bypass the WAL entirely), the follower copies the
  primary's snapshot file and reopens over it.  The copy races only with
  the atomic snapshot rename, so it always sees a complete file.
* **Promote** — on a ``promote`` op the follower reads the *dead*
  primary's on-disk WAL directly (acknowledged appends are flushed to
  the OS before the ack, so they survive a SIGKILL), applies what it is
  missing, and flips role to ``shard``; subsequent updates route here.
"""

from __future__ import annotations

import time as _time

#: stamped before the engine's modules load, so the ready report can say
#: how much of a worker's start-up was importing this module.
_IMPORT_STARTED = _time.perf_counter()

import contextlib
import json
import os
import shutil
import socket
import socketserver
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from ..model.graph import TemporalGraph
from ..model.time import NOW
from ..mvbt.tree import DuplicateKeyError, TimeOrderError
from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..service.snapshot import is_snapshot
from ..service.store import StoreError, TemporalStore
from ..service.wal import read_records
from . import protocol
from .client import ShardClient
from .protocol import (
    FrameTooLarge,
    ProtocolError,
    ReplicaLagging,
    recv_message,
    send_message,
)

_REQUESTS = _metrics.counter("cluster.worker.requests")
_REPLICATED = _metrics.counter("cluster.worker.replicated")
_REPLICATED_BYTES = _metrics.counter("cluster.worker.replicated_bytes")
_WAL_SHIPPED = _metrics.counter("cluster.worker.wal_shipped")
_WAL_SHIPPED_BYTES = _metrics.counter("cluster.worker.wal_shipped_bytes")
_RESYNCS = _metrics.counter("cluster.worker.resyncs")

_IMPORT_MS = round((_time.perf_counter() - _IMPORT_STARTED) * 1000.0, 3)


@dataclass
class WorkerConfig:
    """Everything a launched worker needs (must survive a JSON round-trip)."""

    shard_id: int
    role: str  # "shard" | "replica"
    directory: str
    #: primary's (host, port) and directory — replicas only.
    primary_address: tuple[str, int] | None = None
    primary_directory: str | None = None
    replica_index: int = 0
    use_optimizer: bool = True
    group_size: int = 32
    fsync: bool = True
    query_cache_size: int | None = 256
    poll_interval: float = 0.05


class _WorkerState:
    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self.role = config.role
        self.store: TemporalStore = _open_store(config)
        self.stopping = threading.Event()
        #: serializes resync/promote against each other (queries keep
        #: serving off whatever store object they already grabbed).
        self.maintenance = threading.Lock()
        #: replication-lag telemetry (replicas only; written by the tail
        #: thread, read lock-free by status/metrics ops).
        self.primary_head_lsn: int | None = None
        self.last_applied_stamp: float | None = None


def _event_fields(state: _WorkerState, **fields) -> dict:
    """Common correlation fields for worker-side events and log lines.

    Every structured line a worker emits carries ``shard_id``/``role``/
    ``pid`` plus the worker-local ``trace_id`` when the call happens
    under a traced RPC — the same id the coordinator records as
    ``remote_trace_id`` on the grafted span, so logs join stitched
    traces.
    """
    fields.update(
        shard_id=state.config.shard_id,
        role=state.role,
        pid=os.getpid(),
        trace_id=_trace.current_trace_id(),
    )
    return fields


def _replica_lag_seconds(state: _WorkerState) -> float | None:
    """Seconds this replica is behind its primary, or None if unknown.

    Zero when the last ``wal_since`` poll found us at the primary's head;
    otherwise the age of the newest shipped-record stamp we applied.
    Primaries report None.
    """
    if state.role != "replica":
        return None
    head = state.primary_head_lsn
    if head is None:
        return None
    if state.store.revision >= head:
        return 0.0
    stamp = state.last_applied_stamp
    if stamp is None:
        return None
    return max(0.0, _time.time() - stamp)


def _open_store(config: WorkerConfig) -> TemporalStore:
    return TemporalStore(
        config.directory,
        use_optimizer=config.use_optimizer,
        group_size=config.group_size,
        fsync=config.fsync,
        query_cache_size=config.query_cache_size,
    )


# -------------------------------------------------------------- replication


def _resync(state: _WorkerState) -> None:
    """Rebuild this follower from the primary's snapshot file.

    Used when WAL shipping cannot bridge the follower to the primary: a
    bulk load (which bypasses the WAL) or a replication gap (the primary
    truncated records at checkpoint).  ``save_snapshot`` publishes via an
    atomic rename, so the copy sees either the previous or the new
    snapshot, never a torn one — and a stale copy merely triggers one
    more resync round.
    """
    config = state.config
    with state.maintenance:
        state.store.close()
        own_snap = Path(config.directory) / TemporalStore.SNAPSHOT_NAME
        own_wal = Path(config.directory) / TemporalStore.WAL_NAME
        primary_snap = (
            Path(config.primary_directory) / TemporalStore.SNAPSHOT_NAME
            if config.primary_directory else None
        )
        if primary_snap is not None and primary_snap.exists():
            tmp = own_snap.with_name(own_snap.name + ".resync")
            shutil.copyfile(primary_snap, tmp)
            os.replace(tmp, own_snap)
        elif own_snap.exists():
            own_snap.unlink()
        if own_wal.exists():
            own_wal.unlink()
        state.store = _open_store(config)
        if _metrics.ENABLED:
            _RESYNCS.inc()
        _events.EVENTS.record(
            "cluster.event.resync",
            **_event_fields(state, revision=state.store.revision),
        )


def _tail_loop(state: _WorkerState) -> None:
    """Poll the primary for WAL records past our revision and apply them."""
    config = state.config
    primary = ShardClient(config.primary_address, timeout=5.0)
    try:
        while not state.stopping.is_set() and state.role == "replica":
            try:
                shipped = primary.rpc(
                    protocol.WalSince(lsn=state.store.revision))
            except (OSError, ProtocolError, StoreError):
                # Primary unreachable (dead, or not yet serving) or unable
                # to read its log just now: keep polling — promotion, if
                # any, arrives from the coordinator.
                state.stopping.wait(config.poll_interval)
                continue
            state.primary_head_lsn = shipped.head_lsn
            _apply_shipped(state, shipped)
            if not shipped.records:
                state.stopping.wait(config.poll_interval)
    finally:
        primary.close()


def _apply_shipped(state: _WorkerState, shipped: protocol.WalReply) -> None:
    applied = 0
    applied_bytes = 0
    for record, stamp in zip(shipped.records, shipped.stamps):
        if state.stopping.is_set() or state.role != "replica":
            break
        try:
            state.store.apply_replicated(record)
            applied += 1
        except StoreError as error:
            _events.EVENTS.record(
                "cluster.event.replication_gap", level="warning",
                **_event_fields(state, lsn=record.lsn, error=str(error)),
            )
            _resync(state)
            break
        except (DuplicateKeyError, TimeOrderError, KeyError,
                ValueError) as error:
            # The record does not apply to our state: we diverged
            # (e.g. raced a bulk load).  Snap back to the primary's
            # snapshot rather than guessing.
            _events.EVENTS.record(
                "cluster.event.diverged", level="warning",
                **_event_fields(state, lsn=record.lsn, error=str(error)),
            )
            _resync(state)
            break
        if stamp is not None:
            state.last_applied_stamp = stamp
        if _metrics.ENABLED:
            applied_bytes += len(
                json.dumps(protocol.encode_wal_record(record)))
    if applied and _metrics.ENABLED:
        _REPLICATED.inc(applied)
        _REPLICATED_BYTES.inc(applied_bytes)


def _catch_up_from_wal(state: _WorkerState, wal_path: str) -> int:
    """Apply every record in ``wal_path`` past our revision; returns the
    count applied.  Raises :class:`StoreError` on a replication gap."""
    path = Path(wal_path)
    if not path.exists():
        return 0
    applied = 0
    for record in read_records(path):
        if record.lsn <= state.store.revision:
            continue
        state.store.apply_replicated(record)
        applied += 1
    return applied


def _promote(state: _WorkerState, wal_path: str | None) -> None:
    """Take over as primary: final catch-up from the dead primary's log,
    then flip role (which also stops the tail loop)."""
    for attempt in range(2):
        try:
            applied = (
                _catch_up_from_wal(state, wal_path) if wal_path else 0
            )
        except StoreError as error:
            if attempt:
                raise
            # Gap against the dead primary's log: its snapshot holds the
            # truncated prefix — resync onto it and replay once more.
            _events.EVENTS.record(
                "cluster.event.promote_gap", level="warning",
                **_event_fields(state, error=str(error)),
            )
            _resync(state)
            continue
        break
    state.role = "shard"
    _events.EVENTS.record(
        "cluster.event.promoted",
        **_event_fields(state, revision=state.store.revision,
                        caught_up=applied),
    )


# ------------------------------------------------------------------ op impl
#
# One handler per request class; ``_dispatch`` decodes the frame first,
# so a handler only ever sees a well-formed request, and a ``KeyError``
# out of one can only mean "no such live fact".


def _op_ping(state: _WorkerState, request: protocol.Ping) -> protocol.Ack:
    return protocol.Ack()


def _op_status(state: _WorkerState,
               request: protocol.Status) -> protocol.StatusReply:
    store = state.store
    return protocol.StatusReply(
        role=state.role,
        shard_id=state.config.shard_id,
        revision=store.revision,
        live_facts=store.live_facts,
        horizon=store.engine.horizon,
        pid=os.getpid(),
        lag_seconds=_replica_lag_seconds(state),
    )


def _run_query(state: _WorkerState, request, query) -> protocol.RowsReply:
    store = state.store
    if state.role == "replica" and store.revision < request.min_lsn:
        raise ReplicaLagging(
            f"replica at LSN {store.revision}, needs {request.min_lsn}"
        )
    if request.horizon > store.engine.horizon_floor:
        # Monotonic: the cluster horizon only advances, so concurrent
        # raises from racing requests are order-independent.
        store.engine.horizon_floor = request.horizon
    result = store.query(query)
    return protocol.RowsReply(
        variables=result.variables, rows=result.rows,
        revision=result.revision,
    )


def _op_query(state: _WorkerState,
              request: protocol.Query) -> protocol.RowsReply:
    return _run_query(state, request, request.text)


def _op_scan(state: _WorkerState,
             request: protocol.Scan) -> protocol.RowsReply:
    return _run_query(state, request, request.query)


def _op_update(state: _WorkerState,
               request: protocol.Update) -> protocol.UpdateReply:
    if state.role != "shard":
        raise StoreError("replica is read-only")
    store = state.store
    apply = store.insert if request.update == "insert" else store.delete
    lsn = apply(request.subject, request.predicate, request.object,
                request.time)
    return protocol.UpdateReply(lsn=lsn, revision=store.revision)


def _op_load(state: _WorkerState,
             request: protocol.Load) -> protocol.LoadReply:
    graph = TemporalGraph()
    for subject, predicate, object_, start, end in request.rows:
        graph.add(subject, predicate, object_, start,
                  NOW if end is None else end)
    state.store.load_dataset(graph)
    return protocol.LoadReply(live_facts=state.store.live_facts,
                              horizon=state.store.engine.horizon)


def _op_wal_since(state: _WorkerState,
                  request: protocol.WalSince) -> protocol.WalReply:
    records = state.store.wal_since(request.lsn)
    if records and _metrics.ENABLED:
        _WAL_SHIPPED.inc(len(records))
        _WAL_SHIPPED_BYTES.inc(len(json.dumps(
            [protocol.encode_wal_record(r) for r in records])))
    # Stamps ride the shipping envelope, not the WAL format: each is the
    # wall-clock time the record became durable here (None once pruned
    # from the tracking window), and head_lsn lets a caught-up follower
    # report zero lag without any stamp arithmetic.
    return protocol.WalReply(
        records=records,
        stamps=[state.store.append_walltime(r.lsn) for r in records],
        head_lsn=state.store.revision,
    )


def _op_resync(state: _WorkerState,
               request: protocol.Resync) -> protocol.RevisionReply:
    if state.role != "replica":
        raise StoreError("resync only applies to replicas")
    _resync(state)
    return protocol.RevisionReply(revision=state.store.revision)


def _op_promote(state: _WorkerState,
                request: protocol.Promote) -> protocol.RevisionReply:
    already = state.role != "replica"
    if not already:
        _promote(state, request.wal_path)
    return protocol.RevisionReply(revision=state.store.revision,
                                  already=already)


def _op_checkpoint(state: _WorkerState,
                   request: protocol.Checkpoint) -> protocol.RevisionReply:
    state.store.checkpoint()
    return protocol.RevisionReply(revision=state.store.revision)


def _op_refresh_stats(
        state: _WorkerState,
        request: protocol.RefreshStats) -> protocol.RefreshStatsReply:
    return protocol.RefreshStatsReply(
        refreshed=state.store.refresh_statistics())


def _op_predicates(state: _WorkerState,
                   request: protocol.Predicates) -> protocol.PredicatesReply:
    """This member's predicate inventory (coordinator bootstrap uses it
    to rebuild the planner's routing map over pre-existing data)."""
    return protocol.PredicatesReply(predicates=state.store.predicates())


def _op_metrics(state: _WorkerState,
                request: protocol.Metrics) -> protocol.MetricsReply:
    """This member's registry snapshot, for the federation collector.

    With observability off the registry holds stale pre-disable values;
    reporting ``enabled: false`` with empty metrics lets the coordinator
    skip this member instead of merging frozen series.
    """
    enabled = _metrics.ENABLED
    return protocol.MetricsReply(
        enabled=enabled,
        metrics=_metrics.REGISTRY.snapshot() if enabled else {},
        role=state.role,
        revision=state.store.revision,
        lag_seconds=_replica_lag_seconds(state),
    )


def _op_events(state: _WorkerState,
               request: protocol.Events) -> protocol.EventsReply:
    """This member's recent cluster events (ring contents, newest first)."""
    return protocol.EventsReply(events=_events.EVENTS.recent(request.limit))


#: request class -> handler: one entry per op :mod:`.protocol` declares.
_HANDLERS = {
    protocol.Ping: _op_ping,
    protocol.Status: _op_status,
    protocol.Query: _op_query,
    protocol.Scan: _op_scan,
    protocol.Update: _op_update,
    protocol.Load: _op_load,
    protocol.WalSince: _op_wal_since,
    protocol.Resync: _op_resync,
    protocol.Promote: _op_promote,
    protocol.Checkpoint: _op_checkpoint,
    protocol.RefreshStats: _op_refresh_stats,
    protocol.Predicates: _op_predicates,
    protocol.Metrics: _op_metrics,
    protocol.Events: _op_events,
}


def _dispatch(state: _WorkerState, wire: dict) -> dict:
    """One request frame -> its reply frame.

    The frame is decoded before any handler runs (unknown op, missing or
    undeclared field: ``bad_request``); an exception listed in
    :data:`protocol.ERRORS` becomes an error reply of its kind.
    """
    recv_ts = _time.time()
    if _metrics.ENABLED:
        _REQUESTS.inc()
    try:
        request = protocol.decode_request(wire)
        if request.trace_id and _metrics.ENABLED:
            trace_cm = _trace.start_trace(
                f"cluster.{request.op}", shard=state.config.shard_id,
                upstream=request.trace_id,
            )
        else:
            trace_cm = contextlib.nullcontext()
        with trace_cm as opened:
            reply = _HANDLERS[type(request)](state, request)
        if isinstance(opened, _trace.Trace):
            # The coordinator asked for tracing (it sent its trace id):
            # ride our finished, bounded span subtree back on the reply
            # so the coordinator can graft it under its cluster.rpc span.
            # Sampling mirrors the coordinator's by construction — an
            # unsampled request never carries a trace_id.
            reply = replace(reply, trace=protocol.encode_trace_envelope(
                opened, shard_id=state.config.shard_id, role=state.role,
                recv_ts=recv_ts, send_ts=_time.time(),
            ))
        return protocol.to_wire(reply)
    except protocol.WIRE_ERRORS as error:
        return protocol.error_to_wire(error)


class _Handler(socketserver.BaseRequestHandler):
    """One persistent connection: a loop of request/response frames."""

    server: "_WorkerServer"

    def handle(self) -> None:
        sock = self.request
        # Nagle + delayed ACK stalls small response frames by tens of
        # milliseconds per round trip; scatter RPCs are all small frames.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while not self.server.state.stopping.is_set():
            try:
                wire = recv_message(sock)
            except (ProtocolError, OSError):
                return  # clean close or dead peer — either way, done
            response = _dispatch(self.server.state, wire)
            try:
                try:
                    send_message(sock, response)
                except FrameTooLarge as error:
                    # Nothing was written: say so on the same, still
                    # good connection instead of dropping it (which the
                    # coordinator would read as a dead worker).
                    send_message(sock, protocol.error_to_wire(error))
            except OSError:
                return


class _WorkerServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, state: _WorkerState) -> None:
        super().__init__(address, handler)
        self.state = state


def _lifeline(server: _WorkerServer) -> None:
    """Stop serving at EOF on stdin: the coordinator closed its end, or
    died (a SIGKILL included).  Reads the raw descriptor, because a
    thread blocked in the buffered ``sys.stdin`` can abort interpreter
    shutdown."""
    while os.read(0, 4096):
        pass
    server.shutdown()


def main() -> None:
    """Entry point of a launched worker: serve until stdin closes.

    Reads its :class:`WorkerConfig` as one JSON line on stdin, opens the
    store, starts the replica tail thread when applicable, binds a
    loopback socket on an ephemeral port, and writes its ``port`` and
    ``pid`` as one JSON line to stdout before serving — plus where its
    start-up went: ``import_ms`` (this module and what it imports),
    ``open_ms`` (store open to bound socket: snapshot load, WAL replay, a
    replica's first resync) and the ``replayed`` record count.  Stdout
    carries that line alone; anything else printed goes to stderr.
    """
    ready = os.dup(1)
    os.dup2(2, 1)
    fields = json.loads(sys.stdin.buffer.readline())
    if fields["primary_address"] is not None:
        fields["primary_address"] = tuple(fields["primary_address"])
    config = WorkerConfig(**fields)
    entered = _time.perf_counter()
    state = _WorkerState(config)
    if config.role == "replica":
        if (state.store.revision == 0 and state.store.live_facts == 0
                and config.primary_directory):
            primary_snap = (
                Path(config.primary_directory) / TemporalStore.SNAPSHOT_NAME
            )
            if primary_snap.exists() and is_snapshot(primary_snap):
                _resync(state)
        tail = threading.Thread(
            target=_tail_loop, args=(state,), daemon=True,
            name=f"repro-tail-{config.shard_id}",
        )
        tail.start()
    server = _WorkerServer(("127.0.0.1", 0), _Handler, state)
    report = {
        "port": server.server_address[1], "pid": os.getpid(),
        "import_ms": _IMPORT_MS,
        "open_ms": round((_time.perf_counter() - entered) * 1000.0, 3),
        "replayed": state.store.replayed,
    }
    try:
        try:
            os.write(ready, json.dumps(report).encode() + b"\n")
        except BrokenPipeError:
            return  # the coordinator died or gave up on this bring-up
        finally:
            os.close(ready)
        threading.Thread(target=_lifeline, args=(server,), daemon=True,
                         name="repro-lifeline").start()
        server.serve_forever(poll_interval=0.1)
    finally:
        state.stopping.set()
        server.server_close()
        state.store.close()
