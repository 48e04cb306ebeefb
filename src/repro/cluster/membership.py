"""Who serves each shard: bring-up, the member table, failover.

A :class:`Membership` owns the worker processes and, per shard, a
:class:`Member` — the primary's client, the surviving replicas' and the
last acknowledged LSN (a worker's three pipes: :mod:`.worker`).
Everything that can change which process is a shard's primary lives
here, under the member's failover lock:

* Reads prefer a replica (round-robin) when one is attached, pinned by
  ``min_lsn`` — a follower still behind the shard's acked LSN refuses
  with ``lagging`` and the read falls back to the primary, so replica
  reads are never stale relative to acknowledged writes.
* On a dead primary (connection failure), the freshest replica is
  promoted — it performs final catch-up from the dead primary's on-disk
  WAL — the member rerouted, and the one failed call retried.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import threading
import time as _time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator

import repro

from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..service.sanitizer import sanitized_lock
from ..service.store import StoreError, TemporalStore
from . import protocol
from .client import ShardClient
from .protocol import ProtocolError, R, ReplicaLagging, Request
from .worker import WorkerConfig

#: put first on a worker's ``PYTHONPATH``, so it imports this ``repro``
#: whatever path the caller's environment carries.
_SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])

#: seconds a wave of workers may take to report ready.
START_TIMEOUT = 60.0

_FAILOVERS = _metrics.counter("cluster.coordinator.failovers")
_RPC_ERRORS = _metrics.counter("cluster.coordinator.rpc_errors")
_REPLICA_READS = _metrics.counter("cluster.coordinator.replica_reads")
_REPLICA_LAGGING = _metrics.counter("cluster.coordinator.replica_lagging")
_SHARDS_ALIVE = _metrics.gauge("cluster.coordinator.shards_alive")
_RPC_HIST = _metrics.histogram("cluster.coordinator.rpc_ms")
_EVENT_WORKER_STARTED = _events.event("cluster.event.worker_started")
_EVENT_WORKER_READY = _events.event("cluster.event.worker_ready")
_EVENT_REPLICA_LAGGING = _events.event("cluster.event.replica_lagging")
_EVENT_MEMBER_DEAD = _events.event("cluster.event.member_dead")
_EVENT_FAILOVER = _events.event("cluster.event.failover")
_EVENT_PROMOTE_FAILED = _events.event("cluster.event.promote_failed")
_EVENT_PROMOTED = _events.event("cluster.event.promoted")


class ShardDown(StoreError):
    """A shard has no live primary and no promotable replica."""


@dataclass
class _Starting:
    """A worker between its launch and its ready report."""

    config: WorkerConfig
    #: its stdout is the ready pipe, which hits EOF if the child dies.
    proc: subprocess.Popen
    started: float


class Member:
    """One shard's primary plus its surviving replicas."""

    def __init__(self, shard_id: int, primary: ShardClient) -> None:
        self.shard_id = shard_id
        self.primary = primary
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

    def processes(self) -> Iterator[tuple[str, int | None, ShardClient]]:
        """``(role, replica index, client)`` per worker: primary first."""
        yield "shard", None, self.primary
        for index, replica in enumerate(self.replicas):
            yield "replica", index, replica


class Membership:
    """The worker fleet of one cluster and the RPC paths into it."""

    def __init__(self, directory: Path, shards: int, replicas: int,
                 worker_kwargs: dict) -> None:
        self.directory = directory
        self._shards = shards
        self._replicas = replicas
        self._worker_kwargs = worker_kwargs
        self._procs: list[subprocess.Popen] = []
        self.members: list[Member] = []

    # ------------------------------------------------------------- bring-up

    def _shard_dir(self, shard_id: int) -> Path:
        return self.directory / f"shard-{shard_id}"

    def _replica_dir(self, shard_id: int, index: int) -> Path:
        return self.directory / f"shard-{shard_id}-replica-{index}"

    def start(self) -> None:
        """Bring every worker up, in two concurrent waves.

        All primaries start before any is awaited, so N interpreters
        import, open their stores (snapshot load + WAL replay over
        existing directories) and bind their sockets at the same time;
        the replicas follow as a second wave because each needs its
        primary's address.
        """
        replicas = self._replicas
        with _trace.span("cluster.bringup", shards=self._shards,
                         replicas=replicas):
            primaries = self._await_workers([
                self._start_worker(WorkerConfig(
                    shard_id=shard_id, role="shard",
                    directory=str(self._shard_dir(shard_id)),
                    **self._worker_kwargs,
                ))
                for shard_id in range(self._shards)
            ])
            self.members.extend(
                Member(shard_id, primary)
                for shard_id, primary in enumerate(primaries)
            )
            wave = [
                self._start_worker(WorkerConfig(
                    shard_id=member.shard_id, role="replica",
                    directory=str(self._replica_dir(member.shard_id, index)),
                    primary_address=member.primary.address,
                    primary_directory=str(self._shard_dir(member.shard_id)),
                    replica_index=index,
                    **self._worker_kwargs,
                ))
                for member in self.members for index in range(replicas)
            ]
            for worker, follower in zip(wave, self._await_workers(wave)):
                self.members[worker.config.shard_id].replicas.append(
                    follower)
        if _metrics.ENABLED:
            _SHARDS_ALIVE.set(self._shards)

    def _start_worker(self, config: WorkerConfig) -> _Starting:
        """Launch one worker process without waiting for it.  It inherits
        the environment and runs the worker module alone."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (_SOURCE_ROOT, env.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.cluster.worker import main; main()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        self._procs.append(proc)
        started = _time.perf_counter()
        try:
            proc.stdin.write(json.dumps(asdict(config)).encode() + b"\n")
            proc.stdin.flush()
        except BrokenPipeError:
            pass  # already dead: its ready pipe reads EOF, reported there
        _events.EVENTS.record(
            _EVENT_WORKER_STARTED, shard_id=config.shard_id,
            role=config.role, pid=proc.pid,
        )
        return _Starting(config, proc, started)

    def _await_workers(self, wave: list[_Starting]) -> list[ShardClient]:
        """Collect one wave's ready reports, in the wave's order.

        Waits on every pending ready pipe at once: reports are taken as
        they arrive, and a worker that dies before reporting closes its
        pipe, failing the bring-up at once instead of after
        :data:`START_TIMEOUT`.
        """
        clients: dict[int, ShardClient] = {}
        deadline = _time.monotonic() + START_TIMEOUT
        try:
            with selectors.DefaultSelector() as selector:
                for position, worker in enumerate(wave):
                    selector.register(worker.proc.stdout,
                                      selectors.EVENT_READ, position)
                while len(clients) < len(wave):
                    signalled = selector.select(
                        max(0.0, deadline - _time.monotonic()))
                    if not signalled:
                        late = ", ".join(
                            f"shard {w.config.shard_id} ({w.config.role})"
                            for position, w in enumerate(wave)
                            if position not in clients
                        )
                        raise StoreError(
                            f"worker for {late} did not report ready "
                            f"within {START_TIMEOUT}s"
                        )
                    for key, _ in signalled:
                        selector.unregister(key.fileobj)
                        clients[key.data] = self._worker_ready(
                            wave[key.data])
        finally:
            for worker in wave:
                worker.proc.stdout.close()
        return [clients[position] for position in range(len(wave))]

    def _worker_ready(self, worker: _Starting) -> ShardClient:
        """Turn a signalled worker into its client, or raise if it died."""
        config = worker.config
        with _trace.span("cluster.worker.ready", shard=config.shard_id,
                         role=config.role) as span:
            line = worker.proc.stdout.readline()
            if not line.endswith(b"\n"):
                worker.proc.wait(timeout=2.0)
                raise StoreError(
                    f"worker for shard {config.shard_id} ({config.role}) "
                    f"died during start-up (exit code "
                    f"{worker.proc.returncode}); its traceback is on stderr"
                )
            info = json.loads(line)
            timings = {
                "startup_ms": round(
                    (_time.perf_counter() - worker.started) * 1000.0, 3),
                "import_ms": info["import_ms"],
                "open_ms": info["open_ms"],
                "replayed": info["replayed"],
            }
            span.annotate(**timings)
            _events.EVENTS.record(
                _EVENT_WORKER_READY, shard_id=config.shard_id,
                role=config.role, pid=info["pid"], **timings,
            )
            return ShardClient(("127.0.0.1", info["port"]), info["pid"],
                               Path(config.directory))

    # ------------------------------------------------------------- RPC paths

    def rpc_primary(self, member: Member, request: Request[R],
                    timeout: float | None = None) -> R:
        """RPC to a shard's primary, promoting a replica on a dead one.

        Loops: each connection failure triggers one (double-checked)
        failover and a retry against whatever primary the member then
        has.  Termination is guaranteed because every failover that acts
        consumes a replica, and an exhausted member raises
        :class:`ShardDown`.
        """
        started = _time.perf_counter()
        span = "cluster.rpc"
        try:
            while True:
                primary = member.primary
                try:
                    return self._rpc(span, member, primary, request, timeout)
                except (OSError, ProtocolError) as error:
                    if _metrics.ENABLED:
                        _RPC_ERRORS.inc()
                    self.failover(member, primary, error)
                    span = "cluster.rpc.retry"
        finally:
            if _metrics.ENABLED:
                _RPC_HIST.observe(
                    (_time.perf_counter() - started) * 1000.0
                )

    def rpc_read(self, member: Member, request: Request[R]) -> R:
        """A read RPC: replica round-robin with primary fallback.

        ``min_lsn`` pins the read to the shard's acked LSN; a lagging
        follower refuses and the primary serves instead, so replica
        reads observe every acknowledged write.
        """
        request = replace(request, min_lsn=member.acked_lsn)
        replica = member.next_replica()
        if replica is not None:
            try:
                reply = self._rpc("cluster.rpc", member, replica, request,
                                  role="replica")
                if _metrics.ENABLED:
                    _REPLICA_READS.inc()
                return reply
            except ReplicaLagging:
                if _metrics.ENABLED:
                    _REPLICA_LAGGING.inc()
                _events.EVENTS.record(
                    _EVENT_REPLICA_LAGGING,
                    shard_id=member.shard_id, min_lsn=member.acked_lsn,
                    trace_id=_trace.current_trace_id(),
                )
            except (OSError, ProtocolError) as error:
                self.drop_replica(member, replica, error)
        return self.rpc_primary(member, request)

    @staticmethod
    def _rpc(span: str, member: Member, client: ShardClient,
             request: Request[R], timeout: float | None = None,
             **attrs) -> R:
        with _trace.span(span, shard=member.shard_id, op=request.op,
                         **attrs):
            return client.rpc(request, timeout=timeout)

    def drop_replica(self, member: Member, replica: ShardClient,
                     error: Exception) -> None:
        """Stop routing to a replica that no longer answers."""
        _events.EVENTS.record(
            _EVENT_MEMBER_DEAD, level="warning",
            shard_id=member.shard_id, role="replica", pid=replica.pid,
            error=str(error), trace_id=_trace.current_trace_id(),
        )
        replica.close()
        member.replicas = [r for r in member.replicas if r is not replica]

    def failover(self, member: Member, dead: ShardClient,
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
                _EVENT_FAILOVER, level="warning",
                shard_id=member.shard_id, cause=str(cause),
                dead_pid=dead.pid, trace_id=_trace.current_trace_id(),
            )
            while member.replicas:
                candidate = member.replicas.pop(0)
                try:
                    # Intentional hold: promotion must finish under the
                    # member lock or a concurrent writer could route to
                    # a half-promoted replica; bounded by the timeout.
                    promoted = candidate.rpc(
                        protocol.Promote(wal_path=wal_path), timeout=30.0,
                    )
                except (OSError, ProtocolError) as error:
                    _events.EVENTS.record(
                        _EVENT_PROMOTE_FAILED, level="warning",
                        shard_id=member.shard_id, error=str(error),
                        dead_pid=candidate.pid,
                    )
                    candidate.close()
                    continue
                member.primary = candidate
                # The promoted primary may hold acknowledged writes the
                # dead one shipped but never reported; adopt its applied
                # LSN so replica pins and update recovery observe them.
                member.acked_lsn = max(member.acked_lsn, promoted.revision)
                if _metrics.ENABLED:
                    _FAILOVERS.inc()
                _events.EVENTS.record(
                    _EVENT_PROMOTED, level="warning",
                    shard_id=member.shard_id, new_pid=candidate.pid,
                    acked_lsn=member.acked_lsn,
                )
                return
            if _metrics.ENABLED:
                _SHARDS_ALIVE.set(
                    sum(1 for m in self.members if m.primary.alive)
                )
            raise ShardDown(
                f"shard {member.shard_id} is down and no replica could "
                f"be promoted"
            ) from cause

    # -------------------------------------------------------------- closing

    def terminate(self) -> None:
        """Stop every started process at once (a failed bring-up: nothing
        has been written, so no worker needs a clean shutdown)."""
        for proc in self._procs:
            proc.terminate()

    def close(self) -> None:
        """Close every client and every lifeline — each worker then stops
        serving, closes its store and exits, all at once — and reap them."""
        for member in self.members:
            for _, _, client in member.processes():
                client.close()
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                proc.wait(timeout=2.0)
