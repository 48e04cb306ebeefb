"""The cluster coordinator: spawn, route, gather, fail over.

:class:`ClusterStore` duck-types :class:`~repro.service.store.TemporalStore`
(``query`` / ``insert`` / ``delete`` / ``checkpoint`` / ``revision`` /
``live_facts`` / ``storage_report`` / ``close``), so the existing HTTP
server fronts a cluster without changing a single handler.

Topology: N shard primaries plus M replicas each, all spawned worker
processes (``spawn`` context — a fork would clone live thread-pool and
lock state) with directories laid out under the coordinator's own::

    dir/shard-0/            primary for shard 0
    dir/shard-0-replica-0/  its first follower
    dir/shard-1/            ...

Consistency model — single coordinator, single writer per shard:

* Writes route to the subject's owner shard; the **cluster revision
  watermark** is the sum of per-shard applied LSNs, bumped under the
  coordinator's writer lock, so it is monotonic and every read reports
  the watermark it executed under.
* A cluster-wide **time watermark** totally orders update chronons
  across shards (each shard alone would only enforce its local maximum,
  letting history interleave inconsistently between shards).
* Reads prefer a replica (round-robin) when one is attached, pinned by
  ``min_lsn`` — a follower still behind the shard's acked LSN refuses
  with ``lagging`` and the read falls back to the primary, so replica
  reads are never stale relative to acknowledged writes.
* On a dead primary (connection failure), the coordinator promotes the
  freshest replica — which performs final catch-up from the dead
  primary's on-disk WAL — reroutes, and retries the one failed call.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import connection as _mpc
from pathlib import Path

from ..engine.engine import QueryResult
from ..model.time import MIN_TIME, NOW, TimeError
from ..mvbt.tree import DuplicateKeyError, TimeOrderError
from ..obs import events as _events
from ..obs import federation as _federation
from ..obs import log as _obslog
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..service.sanitizer import sanitized_lock
from ..service.store import StoreError, TemporalStore
from ..sparqlt.ast import Query
from ..sparqlt.parser import parse
from . import executor as _dist
from . import protocol
from .planner import ShardPlanner
from .protocol import (
    KIND_BAD_REQUEST,
    KIND_CONFLICT_DUPLICATE,
    KIND_CONFLICT_MISSING,
    KIND_CONFLICT_TIME,
    KIND_LAGGING,
    ProtocolError,
    recv_message,
    send_message,
)
from .worker import WorkerConfig, worker_main

_QUERIES = _metrics.counter("cluster.coordinator.queries")
_UPDATES = _metrics.counter("cluster.coordinator.updates")
_SINGLE_SHARD = _metrics.counter("cluster.coordinator.single_shard")
_SCATTER = _metrics.counter("cluster.coordinator.scatter_scans")
_FAILOVERS = _metrics.counter("cluster.coordinator.failovers")
_RPC_ERRORS = _metrics.counter("cluster.coordinator.rpc_errors")
_REPLICA_READS = _metrics.counter("cluster.coordinator.replica_reads")
_REPLICA_LAGGING = _metrics.counter("cluster.coordinator.replica_lagging")
_FEDERATION_PULLS = _metrics.counter("cluster.coordinator.federation_pulls")
_FEDERATION_ERRORS = _metrics.counter(
    "cluster.coordinator.federation_errors"
)
_WATERMARK = _metrics.gauge("cluster.coordinator.watermark")
_SHARDS_ALIVE = _metrics.gauge("cluster.coordinator.shards_alive")
_LAG_MAX_LSN = _metrics.gauge("cluster.lag.max_lsn")
_LAG_MAX_SECONDS = _metrics.gauge("cluster.lag.max_seconds")
_RPC_HIST = _metrics.histogram("cluster.coordinator.rpc_ms")

#: kind -> exception raised coordinator-side, mirroring the worker's
#: mapping so HTTP status codes (400/409) come out as in single-process.
_KIND_ERRORS = {
    KIND_BAD_REQUEST: ValueError,
    KIND_CONFLICT_DUPLICATE: DuplicateKeyError,
    KIND_CONFLICT_MISSING: KeyError,
    KIND_CONFLICT_TIME: TimeOrderError,
}


class ShardDown(StoreError):
    """A shard has no live primary and no promotable replica."""


class ReplicaLagging(Exception):
    """Internal: a replica refused a read pinned past its applied LSN."""


class ShardClient:
    """A pooled socket client for one worker process."""

    def __init__(self, address: tuple[str, int], pid: int,
                 directory: Path, timeout: float = 30.0) -> None:
        self.address = address
        self.pid = pid
        self.directory = directory
        self.timeout = timeout
        self._idle: list[socket.socket] = []
        #: guards only the free-list; never held across send/recv.
        self._lock = sanitized_lock(
            threading.Lock(), "cluster.client.pool", allow_blocking=False
        )
        self.alive = True

    def rpc(self, payload: dict, timeout: float | None = None) -> dict:
        """Send one request, raise the mapped exception on error replies.

        Connection-level failures (``OSError`` / :class:`ProtocolError`)
        propagate raw — the caller decides between retry, failover and
        surfacing.

        Trace stitching is centralized here: inside a live trace the
        request carries the coordinator's trace id (so the worker traces
        its side), and a span attachment riding a success reply is
        popped off the envelope and grafted under the caller's current
        span with the send/recv wall-clock stamps.
        """
        if _trace.active() and "trace_id" not in payload:
            payload = dict(payload)
            payload["trace_id"] = _trace.current_trace_id()
        sock = self._checkout()
        sent_ts = _time.time()
        try:
            if timeout is not None:
                sock.settimeout(timeout)
            send_message(sock, payload)
            response = recv_message(sock)
        except (OSError, ProtocolError):
            self._discard(sock)
            raise
        recv_ts = _time.time()
        if timeout is not None:
            sock.settimeout(self.timeout)
        self._checkin(sock)
        if response.get("ok"):
            attachment = response.pop(protocol.TRACE_KEY, None)
            if attachment is not None:
                _trace.graft_remote_trace(
                    attachment, sent_ts=sent_ts, recv_ts=recv_ts
                )
            return response
        kind = response.get("kind")
        message = response.get("error", "worker error")
        if kind == KIND_LAGGING:
            raise ReplicaLagging(message)
        raise _KIND_ERRORS.get(kind, StoreError)(message)

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        sock = socket.create_connection(self.address, timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock.close()
            raise
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            self._idle.append(sock)

    def _discard(self, sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass  # already dead; nothing held open

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            self._discard(sock)
        self.alive = False


@dataclass
class _Starting:
    """A worker between ``Process.start()`` and its ready report."""

    config: WorkerConfig
    proc: multiprocessing.process.BaseProcess
    #: the coordinator's end of the ready pipe; hits EOF if the child dies.
    pipe: _mpc.Connection
    started: float


class _Member:
    """One shard's primary plus its surviving replicas."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.primary: ShardClient | None = None
        self.replicas: list[ShardClient] = []
        #: last LSN acknowledged by the primary (pins replica reads).
        self.acked_lsn = 0
        #: serializes promotion — concurrent readers may all observe the
        #: same dead primary, and exactly one of them must promote.
        #: Held across the promote RPC on purpose (allow_blocking).
        self.failover_lock = sanitized_lock(
            threading.Lock(), "cluster.member.failover", allow_blocking=True
        )
        self._rr = 0

    def next_replica(self) -> ShardClient | None:
        live = [r for r in self.replicas if r.alive]
        if not live:
            return None
        self._rr = (self._rr + 1) % len(live)
        return live[self._rr]


class ClusterStore:
    """Sharded, replicated drop-in for :class:`TemporalStore`.

    ``shards=1, replicas=0`` is a useful degenerate topology: every query
    takes the single-shard fast path, which is exactly how the golden
    tests pin 1-shard vs N-shard byte-identity.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        shards: int,
        replicas: int = 0,
        use_optimizer: bool = True,
        group_size: int = 32,
        fsync: bool = True,
        query_cache_size: int | None = 256,
        parallel: bool | None = None,
        rpc_timeout: float = 30.0,
        start_timeout: float = 60.0,
        metrics_refresh: float | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.planner = ShardPlanner(shards)
        self.replicas_per_shard = replicas
        self._rpc_timeout = rpc_timeout
        self._start_timeout = start_timeout
        self._worker_kwargs = dict(
            use_optimizer=use_optimizer,
            group_size=group_size,
            fsync=fsync,
            query_cache_size=query_cache_size,
            parallel=parallel,
        )
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list = []
        self._members: list[_Member] = []
        #: serializes writes (and the watermark/time-watermark bumps).
        #: Shard RPCs run under it by design (allow_blocking).
        self._writer = sanitized_lock(
            threading.Lock(), "cluster.writer", allow_blocking=True
        )
        self._closed = False
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * shards),
            thread_name_prefix="repro-scatter",
        )
        #: guards only the federated-metrics cache; the member RPCs run
        #: outside it so a slow worker never blocks cache readers.
        self._federation_lock = sanitized_lock(
            threading.Lock(), "cluster.federation", allow_blocking=False
        )
        self._federation_cache: dict | None = None
        self._federation_ts = 0.0
        self._federation_stop = threading.Event()
        self._federation_thread: threading.Thread | None = None
        try:
            self._spawn_topology()
            self._bootstrap_watermarks()
        except BaseException:
            # The caller never gets an object to close(): stop whatever
            # did start.  Nothing has been written yet, so a worker needs
            # no clean shutdown and is not given time for one.
            for proc in self._procs:
                proc.terminate()
            self.close()
            raise
        if metrics_refresh and metrics_refresh > 0:
            self._federation_thread = threading.Thread(
                target=self._federation_loop, args=(metrics_refresh,),
                name="repro-federation", daemon=True,
            )
            self._federation_thread.start()

    # ------------------------------------------------------------- topology

    def _shard_dir(self, shard_id: int) -> Path:
        return self.directory / f"shard-{shard_id}"

    def _replica_dir(self, shard_id: int, index: int) -> Path:
        return self.directory / f"shard-{shard_id}-replica-{index}"

    def _spawn_topology(self) -> None:
        """Bring every worker up, in two concurrent waves.

        All primaries start before any is awaited, so N interpreters
        import, open their stores (snapshot load + WAL replay over
        existing directories) and bind their sockets at the same time;
        the replicas follow as a second wave because each needs its
        primary's address.
        """
        replicas = self.replicas_per_shard
        with _trace.span("cluster.bringup", shards=self.planner.shards,
                         replicas=replicas):
            primaries = self._await_workers([
                self._start_worker(WorkerConfig(
                    shard_id=shard_id, role="shard",
                    directory=str(self._shard_dir(shard_id)),
                    **self._worker_kwargs,
                ))
                for shard_id in range(self.planner.shards)
            ])
            for shard_id, primary in enumerate(primaries):
                member = _Member(shard_id)
                member.primary = primary
                self._members.append(member)
            wave = [
                self._start_worker(WorkerConfig(
                    shard_id=member.shard_id, role="replica",
                    directory=str(self._replica_dir(member.shard_id, index)),
                    primary_address=member.primary.address,
                    primary_directory=str(self._shard_dir(member.shard_id)),
                    replica_index=index,
                    **self._worker_kwargs,
                ))
                for member in self._members for index in range(replicas)
            ]
            for worker, follower in zip(wave, self._await_workers(wave)):
                self._members[worker.config.shard_id].replicas.append(
                    follower)
        if _metrics.ENABLED:
            _SHARDS_ALIVE.set(self.planner.shards)

    def _start_worker(self, config: WorkerConfig) -> _Starting:
        """Start one worker process without waiting for it."""
        parent, child = self._ctx.Pipe(duplex=False)
        try:
            proc = self._ctx.Process(
                target=worker_main, args=(config, child), daemon=True,
                name=f"repro-{config.role}-{config.shard_id}",
            )
            proc.start()
        except BaseException:
            parent.close()
            raise
        finally:
            # The started child holds its own duplicate; with ours closed
            # a dead child reads as EOF on ``parent``.
            child.close()
        self._procs.append(proc)
        _events.EVENTS.record(
            "cluster.event.worker_started", shard_id=config.shard_id,
            role=config.role, pid=proc.pid,
        )
        return _Starting(config, proc, parent, _time.perf_counter())

    def _await_workers(self, wave: list[_Starting]) -> list[ShardClient]:
        """Collect one wave's ready reports, in the wave's order.

        Waits on every pending ready pipe *and* process sentinel at once:
        reports are taken as they arrive, and a worker that dies before
        reporting fails the bring-up at once instead of after
        ``start_timeout``.
        """
        clients: dict[int, ShardClient] = {}
        pending = dict(enumerate(wave))
        deadline = _time.monotonic() + self._start_timeout
        try:
            while pending:
                signalled = _mpc.wait(
                    [w.pipe for w in pending.values()]
                    + [w.proc.sentinel for w in pending.values()],
                    timeout=max(0.0, deadline - _time.monotonic()),
                )
                if not signalled:
                    late = ", ".join(
                        f"shard {w.config.shard_id} ({w.config.role})"
                        for w in pending.values()
                    )
                    raise StoreError(
                        f"worker for {late} did not report ready within "
                        f"{self._start_timeout}s"
                    )
                for position, worker in list(pending.items()):
                    if (worker.pipe in signalled
                            or worker.proc.sentinel in signalled):
                        clients[position] = self._worker_ready(worker)
                        del pending[position]
        finally:
            for worker in wave:
                worker.pipe.close()
        return [clients[position] for position in range(len(wave))]

    def _worker_ready(self, worker: _Starting) -> ShardClient:
        """Turn a signalled worker into its client, or raise if it died."""
        config = worker.config
        with _trace.span("cluster.worker.ready", shard=config.shard_id,
                         role=config.role) as span:
            try:
                info = worker.pipe.recv()
            except EOFError:
                worker.proc.join(timeout=2.0)
                raise StoreError(
                    f"worker for shard {config.shard_id} ({config.role}) "
                    f"died during start-up (exit code "
                    f"{worker.proc.exitcode}); its traceback is on stderr"
                ) from None
            timings = {
                "startup_ms": round(
                    (_time.perf_counter() - worker.started) * 1000.0, 3),
                "import_ms": info["import_ms"],
                "open_ms": info["open_ms"],
                "replayed": info["replayed"],
            }
            span.annotate(**timings)
            _events.EVENTS.record(
                "cluster.event.worker_ready", shard_id=config.shard_id,
                role=config.role, pid=info["pid"], **timings,
            )
            return ShardClient(
                ("127.0.0.1", info["port"]), info["pid"],
                Path(config.directory), timeout=self._rpc_timeout,
            )

    def _bootstrap_watermarks(self) -> None:
        """Adopt revision/time state from pre-existing shard directories.

        Also rebuilds the planner's predicate map from shard-side
        inventories: a restarted coordinator starts with an incomplete
        map (which must broadcast), and only this rebuild makes
        predicate pruning sound again over pre-loaded data.
        """
        self._watermark = 0
        self._time_watermark = MIN_TIME
        self._horizon = 1
        inventories: list[list[str]] = []
        for member in self._members:
            status = member.primary.rpc({"op": "status"})
            member.acked_lsn = status["revision"]
            self._watermark += status["revision"]
            self._horizon = max(self._horizon, status["horizon"])
            inventories.append(
                member.primary.rpc({"op": "predicates"})["predicates"]
            )
        self.planner.rebuild_predicate_map(inventories)
        self._time_watermark = max(MIN_TIME, self._horizon - 1)
        if _metrics.ENABLED:
            _WATERMARK.set(self._watermark)

    # ------------------------------------------------------------- failover

    def _rpc_primary(self, member: _Member, payload: dict,
                     timeout: float | None = None) -> dict:
        """RPC to a shard's primary, promoting a replica on a dead one.

        Loops: each connection failure triggers one (double-checked)
        failover and a retry against whatever primary the member then
        has.  Termination is guaranteed because every failover that acts
        consumes a replica, and an exhausted member raises
        :class:`ShardDown`.
        """
        started = _time.perf_counter()
        attempt = 0
        try:
            while True:
                primary = member.primary
                name = "cluster.rpc" if attempt == 0 else "cluster.rpc.retry"
                try:
                    with _trace.span(name, shard=member.shard_id,
                                     op=payload.get("op")):
                        return primary.rpc(payload, timeout=timeout)
                except (OSError, ProtocolError) as error:
                    if _metrics.ENABLED:
                        _RPC_ERRORS.inc()
                    self._failover(member, primary, error)
                    attempt += 1
        finally:
            if _metrics.ENABLED:
                _RPC_HIST.observe(
                    (_time.perf_counter() - started) * 1000.0
                )

    def _failover(self, member: _Member, dead: ShardClient,
                  cause: Exception) -> None:
        """Promote a replica of ``member`` to primary (or give up).

        Double-checked under the member's failover lock: concurrent
        readers hitting the same dead primary all land here, but only
        the thread still seeing ``dead`` as the member's primary
        promotes — the rest return and retry against the fresh primary,
        instead of closing it and burning another replica.
        """
        with member.failover_lock:
            if member.primary is not dead:
                return  # another thread already promoted; just retry
            dead.close()
            wal_path = str(dead.directory / TemporalStore.WAL_NAME)
            _events.EVENTS.record(
                "cluster.event.failover", level="warning",
                shard_id=member.shard_id, cause=str(cause),
                dead_pid=dead.pid, trace_id=_trace.current_trace_id(),
            )
            while member.replicas:
                candidate = member.replicas.pop(0)
                try:
                    # Intentional hold: promotion must finish under the
                    # member lock or a concurrent writer could route to
                    # a half-promoted replica; bounded by the timeout.
                    response = candidate.rpc(  # repro-lint: disable=RL013
                        {"op": "promote", "wal_path": wal_path},
                        timeout=30.0,
                    )
                except (OSError, ProtocolError) as error:
                    _events.EVENTS.record(
                        "cluster.event.promote_failed", level="warning",
                        shard_id=member.shard_id, error=str(error),
                        dead_pid=candidate.pid,
                    )
                    candidate.close()
                    continue
                member.primary = candidate
                # The promoted primary may hold acknowledged writes the
                # dead one shipped but never reported; adopt its applied
                # LSN so replica pins and update recovery observe them.
                member.acked_lsn = max(
                    member.acked_lsn, response.get("revision", 0)
                )
                if _metrics.ENABLED:
                    _FAILOVERS.inc()
                _events.EVENTS.record(
                    "cluster.event.promoted", level="warning",
                    shard_id=member.shard_id, new_pid=candidate.pid,
                    acked_lsn=member.acked_lsn,
                )
                return
            if _metrics.ENABLED:
                _SHARDS_ALIVE.set(
                    sum(1 for m in self._members if m.primary.alive)
                )
            raise ShardDown(
                f"shard {member.shard_id} is down and no replica could "
                f"be promoted"
            ) from cause

    def _rpc_read(self, member: _Member, payload: dict) -> dict:
        """A read RPC: replica round-robin with primary fallback.

        ``min_lsn`` pins the read to the shard's acked LSN; a lagging
        follower refuses and the primary serves instead, so replica
        reads observe every acknowledged write.
        """
        payload = dict(payload)
        payload["min_lsn"] = member.acked_lsn
        replica = member.next_replica()
        if replica is not None:
            try:
                with _trace.span("cluster.rpc", shard=member.shard_id,
                                 op=payload.get("op"), role="replica"):
                    response = replica.rpc(payload)
                if _metrics.ENABLED:
                    _REPLICA_READS.inc()
                return response
            except ReplicaLagging:
                if _metrics.ENABLED:
                    _REPLICA_LAGGING.inc()
                _events.EVENTS.record(
                    "cluster.event.replica_lagging",
                    shard_id=member.shard_id, min_lsn=member.acked_lsn,
                    trace_id=_trace.current_trace_id(),
                )
            except (OSError, ProtocolError) as error:
                _events.EVENTS.record(
                    "cluster.event.member_dead", level="warning",
                    shard_id=member.shard_id, role="replica",
                    pid=replica.pid, error=str(error),
                    trace_id=_trace.current_trace_id(),
                )
                replica.close()
                member.replicas = [
                    r for r in member.replicas if r is not replica
                ]
        return self._rpc_primary(member, payload)

    # -------------------------------------------------------------- queries

    def query(self, text, profile: bool = False) -> QueryResult:
        """Evaluate a query across the cluster.

        Results are canonically sorted (see
        :func:`repro.cluster.executor.canonical_sort`) on both paths, so
        the same query over the same data is byte-identical regardless of
        shard count or which members served the scans.  ``profile`` is
        accepted for interface parity but profiles are per-process; the
        coordinator does not stitch shard-side operator trees.
        """
        if self._closed:
            raise StoreError("store is closed")
        if _metrics.ENABLED:
            _QUERIES.inc()
        with _trace.span("cluster.query"):
            query = parse(text) if isinstance(text, str) else text
            target = _dist.whole_query_shard(query, self.planner)
            if (target is not None and not isinstance(text, str)
                    and not query.is_simple):
                # encode_query carries only the simple conjunctive shape
                # (select/patterns/filters); forwarding a pre-parsed
                # UNION/OPTIONAL query would silently drop its group
                # algebra, so it goes through the distributed path.
                target = None
            watermark = self._watermark
            if target is not None:
                if _metrics.ENABLED:
                    _SINGLE_SHARD.inc()
                response = self._rpc_read(self._members[target], {
                    "op": "query",
                    "text": text if isinstance(text, str) else None,
                    "horizon": self._horizon,
                } if isinstance(text, str) else {
                    "op": "scan",
                    "query": protocol.encode_query(query),
                    "horizon": self._horizon,
                })
                rows = [
                    protocol.decode_row(row) for row in response["rows"]
                ]
                rows = _dist.canonical_sort(rows, response["variables"])
                result = QueryResult(
                    variables=response["variables"], rows=rows
                )
            else:
                rows = _dist.distributed_query(
                    query, self.planner, self._scatter_many, self._horizon
                )
                result = QueryResult(variables=query.select, rows=rows)
            result.revision = watermark
            return result

    def _scatter_many(
        self, requests: list[tuple[Query, list[int]]]
    ) -> list[list[dict]]:
        """Fan every (sub-query, shards) request out concurrently."""
        futures = []
        for sub, shard_ids in requests:
            if _metrics.ENABLED:
                _SCATTER.inc(len(shard_ids))
            payload = {
                "op": "scan",
                "query": protocol.encode_query(sub),
                "horizon": self._horizon,
            }
            futures.append([
                _trace.submit(
                    self._scatter_pool, self._rpc_read,
                    self._members[shard_id], payload,
                )
                for shard_id in shard_ids
            ])
        gathered: list[list[dict]] = []
        for group in futures:
            rows: list[dict] = []
            for future in group:
                response = future.result()
                rows.extend(
                    protocol.decode_row(row) for row in response["rows"]
                )
            gathered.append(rows)
        return gathered

    # -------------------------------------------------------------- updates

    def insert(self, subject: str, predicate: str, object: str,
               time: int) -> int:
        return self._update("insert", subject, predicate, object, time)

    def delete(self, subject: str, predicate: str, object: str,
               time: int) -> int:
        return self._update("delete", subject, predicate, object, time)

    def _update(self, op: str, subject: str, predicate: str, object: str,
                time: int) -> int:
        if self._closed:
            raise StoreError("store is closed")
        if not (MIN_TIME <= time < NOW):
            raise ValueError(
                f"update time {time!r} outside [{MIN_TIME}, NOW)"
            )
        with self._writer:
            # Cluster-wide time ordering: each shard alone only enforces
            # its local maximum, which would let per-shard histories
            # interleave chronons inconsistently.
            if time < self._time_watermark:
                raise TimeOrderError(
                    f"update at {time} before cluster watermark "
                    f"{self._time_watermark}"
                )
            shard_id = self.planner.note_write(subject, predicate)
            member = self._members[shard_id]
            # trace_id rides along inside ShardClient.rpc when tracing.
            payload = {
                "op": "update", "update": op, "subject": subject,
                "predicate": predicate, "object": object, "time": time,
            }
            acked_before = member.acked_lsn
            primary_before = member.primary
            try:
                # Intentional hold: the writer lock serialises updates
                # cluster-wide, so the shard RPC happens under it by
                # design; bounded by the per-RPC socket timeout.
                response = self._rpc_primary(member, payload)  # repro-lint: disable=RL013
            except (DuplicateKeyError, KeyError) as conflict:
                if member.primary is primary_before:
                    raise  # genuine conflict from a healthy primary
                # The old primary may have applied (and shipped) the
                # write before dying without replying; a conflict from
                # the retried RPC on the promoted primary can then be
                # the write itself.  Only its WAL can tell.
                # Intentional hold: recovery re-reads the shard WAL
                # under the same writer lock as the failed update.
                response = self._recover_update(  # repro-lint: disable=RL013
                    member, payload, acked_before)
                if response is None:
                    raise conflict
            member.acked_lsn = response["revision"]
            self._watermark += 1
            self._time_watermark = max(self._time_watermark, time)
            self._horizon = max(self._horizon, time + 1)
            if _metrics.ENABLED:
                _UPDATES.inc()
                _WATERMARK.set(self._watermark)
            return self._watermark

    def _recover_update(self, member: _Member, payload: dict,
                        acked_before: int) -> dict | None:
        """Decide whether a conflicting post-failover retry committed.

        The promoted primary caught up from the dead primary's WAL, so
        an update that was applied but never acknowledged appears in its
        log past the pre-write acked LSN.  Returns a synthesized success
        response when the exact record is found — the write committed,
        and surfacing a 409 would misreport it — or ``None`` for a
        genuine conflict.  A promoted primary that already checkpointed
        (truncating the record) conservatively reports the conflict.
        """
        wanted = (payload["update"], payload["subject"],
                  payload["predicate"], payload["object"],
                  payload["time"])
        try:
            shipped = self._rpc_primary(
                member, {"op": "wal_since", "lsn": acked_before}
            )
            status = self._rpc_primary(member, {"op": "status"})
        except StoreError:
            return None
        for fields in shipped.get("records", []):
            record = protocol.decode_wal_record(fields)
            if (record.op, record.subject, record.predicate,
                    record.object, record.time) == wanted:
                _events.EVENTS.record(
                    "cluster.event.update_recovered", level="warning",
                    shard_id=member.shard_id, lsn=record.lsn,
                    trace_id=_trace.current_trace_id(),
                )
                return {"ok": True, "lsn": record.lsn,
                        "revision": status["revision"]}
        return None

    # -------------------------------------------------------------- loading

    def load_dataset(self, graph) -> None:
        """Bulk-load an initial dataset: partition, load every primary
        (each checkpoints, making the load durable), then resync the
        replicas — bulk loads bypass the WAL, so followers must adopt the
        fresh snapshot rather than wait for records that will never ship.
        """
        if self._closed:
            raise StoreError("store is closed")
        with self._writer:
            parts = self.planner.partition(graph)
            # One thread per member, so every worker builds its indexes
            # at once; the pool's exit joins them all, and only then does
            # the first failed load raise or any replica resync.
            with ThreadPoolExecutor(
                max_workers=len(self._members),
                thread_name_prefix="repro-load",
            ) as pool:
                loads = []
                for member, part in zip(self._members, parts):
                    rows = [
                        (t.subject, t.predicate, t.object, t.period.start,
                         None if t.period.end == NOW else t.period.end)
                        for t in part.triples()
                    ]
                    loads.append(_trace.submit(
                        pool, self._rpc_primary, member,
                        {"op": "load", "rows": rows}, 300.0,
                    ))
            for load in loads:
                # Intentional hold: bulk load is exclusive by contract;
                # the writer lock stays held across the shard RPCs.
                load.result()  # repro-lint: disable=RL013
            for member in self._members:
                for replica in list(member.replicas):
                    try:
                        # Intentional hold: replicas resync from the
                        # just-loaded primary before writes resume.
                        replica.rpc(  # repro-lint: disable=RL013
                            {"op": "resync"}, timeout=300.0)
                    except (OSError, ProtocolError) as error:
                        _events.EVENTS.record(
                            "cluster.event.member_dead", level="warning",
                            shard_id=member.shard_id, role="replica",
                            pid=replica.pid, error=str(error),
                        )
                        replica.close()
                        member.replicas.remove(replica)
        self._bootstrap_watermarks()

    # ---------------------------------------------------------- maintenance

    def checkpoint(self) -> Path:
        """Checkpoint every member, waiting for replicas to catch up first.

        The primary's checkpoint truncates its WAL; a follower still
        missing truncated records would hit a replication gap and pay a
        full snapshot resync.  Waiting (bounded) for followers to reach
        the acked LSN makes the common case gap-free; a straggler past
        the bound resyncs, which is safe — just slower.
        """
        if self._closed:
            raise StoreError("store is closed")
        with self._writer:
            # Intentional holds below: checkpoint needs a write-quiesced
            # cluster, so the catch-up wait and the checkpoint RPCs all
            # run under the writer lock; each is deadline-bounded.
            for member in self._members:
                for replica in member.replicas:
                    self._wait_for_replica(member, replica)  # repro-lint: disable=RL013
                self._rpc_primary(member, {"op": "checkpoint"})  # repro-lint: disable=RL013
                for replica in member.replicas:
                    try:
                        replica.rpc({"op": "checkpoint"})  # repro-lint: disable=RL013
                    except (OSError, ProtocolError, StoreError) as error:
                        _obslog.LOGGER.warning(
                            "cluster_replica_checkpoint_failed",
                            shard=member.shard_id, error=str(error),
                        )
        return self.directory

    def _wait_for_replica(self, member: _Member, replica: ShardClient,
                          deadline: float = 5.0) -> None:
        waited = 0.0
        while waited < deadline:
            try:
                status = replica.rpc({"op": "status"})
            except (OSError, ProtocolError):
                return  # dead replica cannot catch up; checkpoint anyway
            if status["revision"] >= member.acked_lsn:
                return
            _time.sleep(0.05)
            waited += 0.05

    def refresh_statistics(self) -> bool:
        """Eagerly rebuild optimizer statistics on every primary.

        Dispatches the dedicated ``refresh_stats`` op — *not* a
        checkpoint: checkpoints truncate WALs and belong behind
        :meth:`checkpoint`'s replica catch-up wait.
        """
        if self._closed:
            raise StoreError("store is closed")
        refreshed = False
        for member in self._members:
            response = self._rpc_primary(member, {"op": "refresh_stats"})
            refreshed = bool(response.get("refreshed")) or refreshed
        return refreshed

    # ------------------------------------------------------------ reporting

    @property
    def revision(self) -> int:
        """The cluster watermark (total applied LSNs across shards)."""
        return self._watermark

    @property
    def live_facts(self) -> int:
        return sum(
            status["live_facts"] for status in self._primary_statuses()
        )

    @property
    def cached_results(self) -> int | None:
        return None

    def _primary_statuses(self) -> list[dict]:
        return [
            self._rpc_primary(member, {"op": "status"})
            for member in self._members
        ]

    def cluster_status(self) -> dict:
        """Per-member health: role, applied LSN, liveness, pid."""
        members = []
        for member in self._members:
            entry = {
                "shard": member.shard_id,
                "acked_lsn": member.acked_lsn,
            }
            try:
                status = member.primary.rpc({"op": "status"}, timeout=5.0)
                entry["primary"] = {
                    "role": status["role"], "pid": status["pid"],
                    "applied_lsn": status["revision"],
                    "live_facts": status["live_facts"], "alive": True,
                }
            except (OSError, ProtocolError) as error:
                entry["primary"] = {
                    "role": "shard", "pid": member.primary.pid,
                    "alive": False, "error": str(error),
                }
            entry["replicas"] = []
            for replica in member.replicas:
                try:
                    status = replica.rpc({"op": "status"}, timeout=5.0)
                    entry["replicas"].append({
                        "role": status["role"], "pid": status["pid"],
                        "applied_lsn": status["revision"], "alive": True,
                        "lag_lsn": max(
                            0, member.acked_lsn - status["revision"]
                        ),
                        "lag_seconds": status.get("lag_seconds"),
                    })
                except (OSError, ProtocolError) as error:
                    entry["replicas"].append({
                        "role": "replica", "pid": replica.pid,
                        "alive": False, "error": str(error),
                    })
            members.append(entry)
        return {
            "shards": self.planner.shards,
            "replicas_per_shard": self.replicas_per_shard,
            "watermark": self._watermark,
            "horizon": self._horizon,
            "members": members,
        }

    def storage_report(self) -> dict:
        """Cluster-shaped ``/debug/storage`` payload."""
        return {"cluster": self.cluster_status()}

    # ------------------------------------------------------------ federation

    def _member_rows(self) -> list[dict]:
        """One row per worker process, for metrics/event pulls."""
        rows = []
        for member in self._members:
            rows.append({
                "client": member.primary, "shard": member.shard_id,
                "role": "shard", "replica": None,
                "acked_lsn": member.acked_lsn,
            })
            for index, replica in enumerate(member.replicas):
                rows.append({
                    "client": replica, "shard": member.shard_id,
                    "role": "replica", "replica": index,
                    "acked_lsn": member.acked_lsn,
                })
        return rows

    def _pull_member(self, row: dict) -> dict:
        """Pull one member's registry snapshot (plus lag, for replicas).

        Never raises: a dead or unreachable member comes back as an
        ``alive: false`` entry so a single crashed worker cannot take
        down the whole ``/metrics?scope=cluster`` scrape.
        """
        client: ShardClient = row["client"]
        entry: dict = {
            "shard": row["shard"], "role": row["role"],
            "pid": client.pid, "alive": False, "enabled": False,
            "metrics": {},
        }
        if row["replica"] is not None:
            entry["replica"] = row["replica"]
        if not client.alive:
            return entry
        try:
            response = client.rpc({"op": "metrics"}, timeout=5.0)
        except (OSError, ProtocolError, StoreError) as error:
            if _metrics.ENABLED:
                _FEDERATION_ERRORS.inc()
            entry["error"] = str(error)
            return entry
        entry["alive"] = True
        entry["enabled"] = bool(response.get("enabled"))
        entry["metrics"] = response.get("metrics") or {}
        if row["role"] == "replica":
            applied = int(response.get("revision") or 0)
            entry["applied_lsn"] = applied
            entry["lag_lsn"] = max(0, row["acked_lsn"] - applied)
            entry["lag_seconds"] = response.get("lag_seconds")
        return entry

    def federated_metrics(self, max_age: float = 2.0,
                          force: bool = False) -> dict:
        """Pull and merge every member's metrics snapshot.

        Returns the federated shape ``/metrics?scope=cluster`` serves:
        ``members`` (one raw entry per process, coordinator first, with
        per-replica ``lag_lsn``/``lag_seconds``) and ``groups`` (one
        merged snapshot per ``(shard, role)`` label set — see
        :func:`repro.obs.federation.build_groups`).  Pulls within
        ``max_age`` seconds are served from cache unless ``force``;
        the background refresh loop (``metrics_refresh``) keeps the
        cache warm so scrapes are cheap.
        """
        if self._closed:
            raise StoreError("store is closed")
        if not force:
            with self._federation_lock:
                cached = self._federation_cache
                if (cached is not None
                        and _time.time() - self._federation_ts < max_age):
                    return cached
        if _metrics.ENABLED:
            _FEDERATION_PULLS.inc()
        members: list[dict] = [{
            "role": "coordinator", "pid": os.getpid(), "alive": True,
            "enabled": _metrics.ENABLED,
            "metrics": (
                _metrics.REGISTRY.snapshot() if _metrics.ENABLED else {}
            ),
        }]
        rows = self._member_rows()
        futures = [
            self._scatter_pool.submit(self._pull_member, row)
            for row in rows
        ]
        members.extend(future.result() for future in futures)
        lag_lsn = [
            entry["lag_lsn"] for entry in members
            if entry.get("lag_lsn") is not None
        ]
        lag_seconds = [
            entry["lag_seconds"] for entry in members
            if entry.get("lag_seconds") is not None
        ]
        if _metrics.ENABLED:
            _LAG_MAX_LSN.set(max(lag_lsn, default=0))
            _LAG_MAX_SECONDS.set(max(lag_seconds, default=0.0))
        federated = {
            "scope": "cluster",
            "collected_at": round(_time.time(), 3),
            "watermark": self._watermark,
            "members": members,
            "groups": _federation.build_groups(members),
        }
        with self._federation_lock:
            self._federation_cache = federated
            self._federation_ts = _time.time()
        return federated

    def _federation_loop(self, interval: float) -> None:
        while not self._federation_stop.wait(interval):
            if self._closed:
                return
            try:
                self.federated_metrics(force=True)
            except (StoreError, RuntimeError):
                # closed mid-refresh (RuntimeError: pool shut down)
                return

    def cluster_events(self, limit: int = 100) -> list[dict]:
        """Coordinator + member event rings merged, newest first."""
        if self._closed:
            raise StoreError("store is closed")
        events = list(_events.EVENTS.recent(limit))
        for row in self._member_rows():
            client: ShardClient = row["client"]
            if not client.alive:
                continue
            try:
                response = client.rpc(
                    {"op": "events", "limit": limit}, timeout=5.0
                )
            except (OSError, ProtocolError, StoreError):
                continue
            events.extend(response.get("events") or [])
        events.sort(key=lambda event: event.get("ts", 0.0), reverse=True)
        return events[:limit]

    # -------------------------------------------------------------- closing

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._federation_stop.set()
        if self._federation_thread is not None:
            self._federation_thread.join(timeout=2.0)
        self._scatter_pool.shutdown(wait=False)
        clients = []
        for member in self._members:
            clients.append(member.primary)
            clients.extend(member.replicas)
        for client in clients:
            if not client.alive:
                continue
            try:
                client.rpc({"op": "shutdown"}, timeout=5.0)
            except (OSError, ProtocolError) as error:
                _obslog.LOGGER.debug(
                    "cluster_shutdown_rpc_failed", error=str(error)
                )
            client.close()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)

    def __enter__(self) -> "ClusterStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
