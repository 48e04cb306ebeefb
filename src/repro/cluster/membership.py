"""Who serves each shard: bring-up, the member table, the RPC path.

A :class:`Membership` owns the worker processes and, per shard, a
:class:`Member` — the client of the shard's one worker (a worker's three
pipes: :mod:`.worker`).  A worker that
stops answering is not replaced: its shard raises :class:`ShardDown`
until the cluster is reopened over the same directory, whose WAL and
snapshot recover every acknowledged write.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time as _time
from dataclasses import asdict, dataclass
from pathlib import Path

import repro

from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..service.store import StoreError
from .client import ShardClient
from .protocol import ProtocolError, R, Request
from .worker import ROLE, WorkerConfig

#: put first on a worker's ``PYTHONPATH``, so it imports this ``repro``
#: whatever path the caller's environment carries.
_SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])

#: seconds the workers may take to report ready.
START_TIMEOUT = 60.0

_RPC_ERRORS = _metrics.counter("cluster.coordinator.rpc_errors")
_SHARDS_ALIVE = _metrics.gauge("cluster.coordinator.shards_alive")
_RPC_HIST = _metrics.histogram("cluster.coordinator.rpc_ms")
_EVENT_WORKER_STARTED = _events.event("cluster.event.worker_started")
_EVENT_WORKER_READY = _events.event("cluster.event.worker_ready")
_EVENT_MEMBER_DEAD = _events.event("cluster.event.member_dead")


class ShardDown(StoreError):
    """A shard's worker stopped answering; reopen the cluster to recover."""


@dataclass
class _Starting:
    """A worker between its launch and its ready report."""

    config: WorkerConfig
    #: its stdout is the ready pipe, which hits EOF if the child dies.
    proc: subprocess.Popen
    started: float


class Member:
    """One shard and its worker's client."""

    def __init__(self, shard_id: int, primary: ShardClient) -> None:
        self.shard_id = shard_id
        self.primary = primary


class Membership:
    """The worker fleet of one cluster and the RPC path into it."""

    def __init__(self, directory: Path, shards: int,
                 worker_kwargs: dict) -> None:
        self.directory = directory
        self._shards = shards
        self._worker_kwargs = worker_kwargs
        self._procs: list[subprocess.Popen] = []
        self.members: list[Member] = []

    # ------------------------------------------------------------- bring-up

    def _shard_dir(self, shard_id: int) -> Path:
        return self.directory / f"shard-{shard_id}"

    def start(self) -> None:
        """Bring every worker up at once.

        All workers start before any is awaited, so N interpreters
        import, open their stores (snapshot load + WAL replay over
        existing directories) and bind their sockets at the same time.
        """
        with _trace.span("cluster.bringup", shards=self._shards):
            workers = self._await_workers([
                self._start_worker(WorkerConfig(
                    shard_id=shard_id,
                    directory=str(self._shard_dir(shard_id)),
                    **self._worker_kwargs,
                ))
                for shard_id in range(self._shards)
            ])
            self.members.extend(
                Member(shard_id, worker)
                for shard_id, worker in enumerate(workers)
            )
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
            role=ROLE, pid=proc.pid,
        )
        return _Starting(config, proc, started)

    def _await_workers(self, wave: list[_Starting]) -> list[ShardClient]:
        """Collect the workers' ready reports, in the wave's order.

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
                            f"shard {w.config.shard_id}"
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
                         role=ROLE) as span:
            line = worker.proc.stdout.readline()
            if not line.endswith(b"\n"):
                worker.proc.wait(timeout=2.0)
                raise StoreError(
                    f"worker for shard {config.shard_id} ({ROLE}) "
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
                role=ROLE, pid=info["pid"], **timings,
            )
            return ShardClient(("127.0.0.1", info["port"]), info["pid"],
                               Path(config.directory))

    # ------------------------------------------------------------- RPC paths

    def rpc_primary(self, member: Member, request: Request[R],
                    timeout: float | None = None) -> R:
        """RPC to a shard's worker; :class:`ShardDown` if it is dead.

        A connection failure (``OSError`` / :class:`ProtocolError`)
        closes the member's client, which health and metrics pulls then
        report as not alive, and is raised as :class:`ShardDown`.  The
        failure that finds the client alive records the death; later ones,
        each refused by the dead worker, only raise.  An error reply is
        the worker's answer and propagates as raised.
        """
        started = _time.perf_counter()
        primary = member.primary
        try:
            with _trace.span("cluster.rpc", shard=member.shard_id,
                             op=request.op):
                return primary.rpc(request, timeout=timeout)
        except (OSError, ProtocolError) as error:
            if _metrics.ENABLED:
                _RPC_ERRORS.inc()
            if primary.close():
                _events.EVENTS.record(
                    _EVENT_MEMBER_DEAD, level="warning",
                    shard_id=member.shard_id, role=ROLE, pid=primary.pid,
                    error=str(error), trace_id=_trace.current_trace_id(),
                )
                if _metrics.ENABLED:
                    _SHARDS_ALIVE.set(
                        sum(1 for m in self.members if m.primary.alive))
            raise ShardDown(
                f"shard {member.shard_id} is down: {error}") from error
        finally:
            if _metrics.ENABLED:
                _RPC_HIST.observe(
                    (_time.perf_counter() - started) * 1000.0
                )

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
            member.primary.close()
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                proc.wait(timeout=2.0)
