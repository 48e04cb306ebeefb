"""The shard worker process.

One worker per shard, a plain ``python -c`` subprocess running
:func:`main` — never the launching script.  Its config arrives as one
JSON line on stdin, its ready report leaves as one on stdout, and stdin
stays open as a lifeline: EOF (a closing or dead coordinator) stops it.
Each worker owns a private directory with a full
:class:`~repro.service.store.TemporalStore` — engine, WAL, snapshots, no
result cache — and answers the :mod:`repro.cluster.protocol` ops on a
loopback TCP socket (``ThreadingTCPServer``: concurrent reads ride the
store's readers-writer lock exactly as in the single-process server).
The store's own WAL and snapshot make the shard durable: a worker started
again over the same directory recovers every acknowledged write.
"""

from __future__ import annotations

import time as _time

#: stamped before the engine's modules load, so the ready report can say
#: how much of a worker's start-up was importing this module.
_IMPORT_STARTED = _time.perf_counter()

import contextlib
import json
import os
import socket
import socketserver
import sys
import threading
from dataclasses import dataclass, replace

from ..model.graph import TemporalGraph
from ..model.time import NOW
from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..service.store import TemporalStore
from . import protocol
from .protocol import FrameTooLarge, ProtocolError, recv_message, send_message

_REQUESTS = _metrics.counter("cluster.worker.requests")

_IMPORT_MS = round((_time.perf_counter() - _IMPORT_STARTED) * 1000.0, 3)


@dataclass
class WorkerConfig:
    """Everything a launched worker needs (must survive a JSON round-trip)."""

    shard_id: int
    directory: str
    use_optimizer: bool = True
    group_size: int = 32
    fsync: bool = True


#: the ``role`` a worker reports in its status, metrics and traces.
ROLE = "shard"


class _WorkerState:
    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self.store = TemporalStore(
            config.directory,
            use_optimizer=config.use_optimizer,
            group_size=config.group_size,
            fsync=config.fsync,
            query_cache_size=None,
        )
        self.stopping = threading.Event()


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
        role=ROLE,
        shard_id=state.config.shard_id,
        revision=store.revision,
        live_facts=store.live_facts,
        horizon=store.engine.horizon,
        pid=os.getpid(),
    )


def _op_query(state: _WorkerState,
              request: protocol.Query) -> protocol.RowsReply:
    store = state.store
    store.raise_horizon(request.horizon)
    result = store.query(request.text)
    return protocol.RowsReply(
        variables=result.variables, rows=result.rows,
        revision=result.revision,
    )


def _op_update(state: _WorkerState,
               request: protocol.Update) -> protocol.UpdateReply:
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


def _op_checkpoint(state: _WorkerState,
                   request: protocol.Checkpoint) -> protocol.RevisionReply:
    state.store.checkpoint()
    return protocol.RevisionReply(revision=state.store.revision)


def _op_refresh_stats(
        state: _WorkerState,
        request: protocol.RefreshStats) -> protocol.RefreshStatsReply:
    return protocol.RefreshStatsReply(
        refreshed=state.store.refresh_statistics())


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
        role=ROLE,
        revision=state.store.revision,
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
    protocol.Update: _op_update,
    protocol.Load: _op_load,
    protocol.Checkpoint: _op_checkpoint,
    protocol.RefreshStats: _op_refresh_stats,
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
                opened, shard_id=state.config.shard_id, role=ROLE,
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
        # milliseconds per round trip; query RPCs are mostly small frames.
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
    store, binds a loopback socket on an ephemeral port, and writes its
    ``port`` and ``pid`` as one JSON line to stdout before serving — plus
    where its start-up went: ``import_ms`` (this module and what it
    imports), ``open_ms`` (store open to bound socket: snapshot load and
    WAL replay) and the ``replayed`` record count.  Stdout
    carries that line alone; anything else printed goes to stderr.
    """
    ready = os.dup(1)
    os.dup2(2, 1)
    config = WorkerConfig(**json.loads(sys.stdin.buffer.readline()))
    entered = _time.perf_counter()
    state = _WorkerState(config)
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
