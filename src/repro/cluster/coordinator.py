"""The cluster coordinator: launch, route, gather, fail over.

:class:`ClusterStore` duck-types :class:`~repro.service.store.TemporalStore`
(``query`` / ``insert`` / ``delete`` / ``checkpoint`` / ``revision`` /
``live_facts`` / ``storage_report`` / ``close``), so the existing HTTP
server fronts a cluster without changing a single handler.

Topology: N shard primaries plus M replicas each, all fresh worker
interpreters (a fork would clone live thread-pool and lock state; see
:mod:`.worker`) with directories laid out under the coordinator's own::

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
* Reads go through :meth:`Membership.rpc_read` (replica round-robin
  pinned to the acked LSN, primary fallback) and a dead primary is
  replaced by :meth:`Membership.failover` — see :mod:`.membership`.

This module keeps routing, the write path, bulk load and checkpoint
(everything under the ``cluster.writer`` lock); the worker fleet and
failover live in :mod:`.membership`, health / federated metrics / events
in :mod:`.telemetry`, the pooled client in :mod:`.client`, and the
messages all of them exchange with the workers in :mod:`.protocol`.
"""

from __future__ import annotations

import threading
import time as _time
from concurrent import futures as _futures
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..engine.engine import QueryResult
from ..engine.operators import project
from ..model.time import MIN_TIME, NOW
from ..mvbt.tree import DuplicateKeyError, TimeOrderError
from ..obs import events as _events
from ..obs import log as _obslog
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..service.sanitizer import sanitized_lock
from ..service.store import StoreError
from ..sparqlt.parser import parse
from . import executor as _dist
from . import protocol
from .client import ShardClient
from .membership import Member, Membership
from .planner import ShardPlanner
from .protocol import ProtocolError
from .telemetry import ClusterTelemetry

_QUERIES = _metrics.counter("cluster.coordinator.queries")
_UPDATES = _metrics.counter("cluster.coordinator.updates")
_SINGLE_SHARD = _metrics.counter("cluster.coordinator.single_shard")
_SCATTER = _metrics.counter("cluster.coordinator.scatter_scans")
_STARS = _metrics.counter("cluster.coordinator.star_queries")
_WATERMARK = _metrics.gauge("cluster.coordinator.watermark")
_EVENT_UPDATE_RECOVERED = _events.event("cluster.event.update_recovered")


class ClusterStore(ClusterTelemetry):
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
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.planner = ShardPlanner(shards)
        self.replicas_per_shard = replicas
        self._membership = Membership(
            self.directory, shards, replicas,
            dict(
                use_optimizer=use_optimizer,
                group_size=group_size,
                fsync=fsync,
                query_cache_size=query_cache_size,
            ),
        )
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
        super().__init__()
        try:
            self._membership.start()
            self._bootstrap_watermarks()
        except BaseException:
            # The caller never gets an object to close(): stop whatever
            # did start.  Nothing has been written yet, so a worker needs
            # no clean shutdown and is not given time for one.
            self._membership.terminate()
            self.close()
            raise

    def _bootstrap_watermarks(self) -> None:
        """Adopt revision/time state from pre-existing shard directories.

        Also rebuilds the planner's predicate map from shard-side
        inventories: a restarted coordinator starts with an incomplete
        map (which must broadcast), and only this rebuild makes
        predicate pruning sound again over pre-loaded data.
        """
        self._read_status()
        self.planner.rebuild_predicate_map([
            member.primary.rpc(protocol.Predicates()).predicates
            for member in self._membership.members
        ])

    def _read_status(self) -> None:
        """Adopt every primary's revision and horizon."""
        self._watermark = 0
        self._time_watermark = MIN_TIME
        self._horizon = 1
        for member in self._membership.members:
            status = member.primary.rpc(protocol.Status())
            member.acked_lsn = status.revision
            self._watermark += status.revision
            self._horizon = max(self._horizon, status.horizon)
        self._time_watermark = max(MIN_TIME, self._horizon - 1)
        if _metrics.ENABLED:
            _WATERMARK.set(self._watermark)

    # -------------------------------------------------------------- queries

    def query(self, text, profile: bool = False) -> QueryResult:
        """Evaluate a query across the cluster.

        ``text`` is query text or a pre-parsed query, which is rendered
        back to text here: a shard gets every read as text.  A subject
        star (:meth:`ShardPlanner.star_shards`) goes whole to each shard
        that can answer it; any other query scatters.  Results are
        canonically sorted (see
        :func:`repro.cluster.executor.canonical_sort`) on every route, so
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
            if isinstance(text, str):
                query = parse(text)
            else:
                query, text = text, protocol.encode_query(text)
            shard_ids = self.planner.star_shards(query.group)
            watermark = self._watermark
            if shard_ids is None:
                rows = _dist.distributed_query(
                    query, self.planner, self._scatter_many, self._horizon
                )
                result = QueryResult(variables=query.select, rows=rows)
            else:
                if _metrics.ENABLED:
                    (_SINGLE_SHARD if len(shard_ids) == 1 else _STARS).inc()
                result = self._star_query(text, shard_ids)
            result.revision = watermark
            return result

    def _star_query(self, text: str, shard_ids: list[int]) -> QueryResult:
        """Answer a whole query on each of ``shard_ids`` and union them.

        The first shard is asked on this thread, so a one-shard star pays
        no thread hand-off, and the rest on the scatter pool meanwhile.
        Each shard projected its own rows; a row
        that several shards return (the projection dropped the subject)
        is kept once, as :func:`~repro.engine.operators.project` keeps it.
        """
        request = protocol.Query(text=text, horizon=self._horizon)
        futures = self._ask(request, shard_ids[1:])
        try:
            first = self._membership.rpc_read(
                self._membership.members[shard_ids[0]], request)
        finally:
            _futures.wait(futures)
        variables, rows = first.variables, first.rows
        if futures:
            rows = project(
                rows + [row for future in futures
                        for row in future.result().rows],
                variables, None,
            )
        return QueryResult(
            variables=variables,
            rows=_dist.canonical_sort(rows, variables),
        )

    def _scatter_many(
        self, requests: list[tuple[str, list[int]]]
    ) -> list[list[dict]]:
        """Fan every (sub-query text, shards) request out concurrently."""
        if _metrics.ENABLED:
            _SCATTER.inc(sum(len(shard_ids) for _, shard_ids in requests))
        gathered = [
            self._ask(protocol.Query(text=text, horizon=self._horizon),
                      shard_ids)
            for text, shard_ids in requests
        ]
        return [
            [row for future in futures for row in future.result().rows]
            for futures in gathered
        ]

    def _ask(self, request: protocol.Query,
             shard_ids: list[int]) -> list[_futures.Future]:
        """Submit ``request`` to each of ``shard_ids`` on the scatter pool;
        the futures carry the caller's trace context."""
        return [
            _trace.submit(
                self._scatter_pool, self._membership.rpc_read,
                self._membership.members[shard_id], request,
            )
            for shard_id in shard_ids
        ]

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
            member = self._membership.members[shard_id]
            # trace_id rides along inside ShardClient.rpc when tracing.
            update = protocol.Update(
                update=op, subject=subject, predicate=predicate,
                object=object, time=time,
            )
            acked_before = member.acked_lsn
            primary_before = member.primary
            try:
                # Intentional hold: the writer lock serialises updates
                # cluster-wide, so the shard RPC happens under it by
                # design; bounded by the per-RPC socket timeout.
                applied = self._membership.rpc_primary(member, update)
            except (DuplicateKeyError, KeyError) as conflict:
                if member.primary is primary_before:
                    raise  # genuine conflict from a healthy primary
                # The old primary may have applied (and shipped) the
                # write before dying without replying; a conflict from
                # the retried RPC on the promoted primary can then be
                # the write itself.  Only its WAL can tell.
                # Intentional hold: recovery re-reads the shard WAL
                # under the same writer lock as the failed update.
                applied = self._recover_update(member, update, acked_before)
                if applied is None:
                    raise conflict
            member.acked_lsn = applied.revision
            self._watermark += 1
            self._time_watermark = max(self._time_watermark, time)
            self._horizon = max(self._horizon, time + 1)
            if _metrics.ENABLED:
                _UPDATES.inc()
                _WATERMARK.set(self._watermark)
            return self._watermark

    def _recover_update(
        self, member: Member, update: protocol.Update, acked_before: int,
    ) -> protocol.UpdateReply | None:
        """Decide whether a conflicting post-failover retry committed.

        The promoted primary caught up from the dead primary's WAL, so
        an update that was applied but never acknowledged appears in its
        log past the pre-write acked LSN.  Returns the reply the dead
        primary never sent when the exact record is found — the write
        committed, and surfacing a 409 would misreport it — or ``None``
        for a genuine conflict.  A promoted primary that already
        checkpointed (truncating the record) conservatively reports the
        conflict.
        """
        wanted = (update.update, update.subject, update.predicate,
                  update.object, update.time)
        try:
            shipped = self._membership.rpc_primary(
                member, protocol.WalSince(lsn=acked_before))
            status = self._membership.rpc_primary(member, protocol.Status())
        except StoreError:
            return None
        for record in shipped.records:
            if (record.op, record.subject, record.predicate,
                    record.object, record.time) == wanted:
                _events.EVENTS.record(
                    _EVENT_UPDATE_RECOVERED, level="warning",
                    shard_id=member.shard_id, lsn=record.lsn,
                    trace_id=_trace.current_trace_id(),
                )
                return protocol.UpdateReply(
                    lsn=record.lsn, revision=status.revision)
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
        members = self._membership.members
        with self._writer:
            parts = self.planner.partition(graph)
            # One thread per member, so every worker builds its indexes
            # at once; the pool's exit joins them all, and only then does
            # the first failed load raise or any replica resync.
            with ThreadPoolExecutor(
                max_workers=len(members),
                thread_name_prefix="repro-load",
            ) as pool:
                loads = []
                for member, part in zip(members, parts):
                    rows = [
                        [t.subject, t.predicate, t.object, t.period.start,
                         None if t.period.end == NOW else t.period.end]
                        for t in part.triples()
                    ]
                    loads.append(_trace.submit(
                        pool, self._membership.rpc_primary, member,
                        protocol.Load(rows=rows), 300.0,
                    ))
            for load in loads:
                # Intentional hold: bulk load is exclusive by contract;
                # the writer lock stays held across the shard RPCs.
                load.result()
            for member in members:
                for replica in list(member.replicas):
                    try:
                        # Intentional hold: replicas resync from the
                        # just-loaded primary before writes resume.
                        replica.rpc(protocol.Resync(), timeout=300.0)
                    except (OSError, ProtocolError) as error:
                        self._membership.drop_replica(
                            member, replica, error)
        # The partition made the predicate map complete: no inventory.
        self._read_status()

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
            for member in self._membership.members:
                for replica in member.replicas:
                    self._wait_for_replica(member, replica)
                self._membership.rpc_primary(member, protocol.Checkpoint())
                for replica in member.replicas:
                    try:
                        replica.rpc(protocol.Checkpoint())
                    except (OSError, ProtocolError, StoreError) as error:
                        _obslog.LOGGER.warning(
                            "cluster_replica_checkpoint_failed",
                            shard=member.shard_id, error=str(error),
                        )
        return self.directory

    def _wait_for_replica(self, member: Member, replica: ShardClient,
                          timeout: float = 5.0) -> None:
        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            try:
                status = replica.rpc(protocol.Status())
            except (OSError, ProtocolError):
                return  # dead replica cannot catch up; checkpoint anyway
            if status.revision >= member.acked_lsn:
                return
            _time.sleep(0.05)

    def refresh_statistics(self) -> bool:
        """Eagerly rebuild optimizer statistics on every primary.

        Dispatches the dedicated ``refresh_stats`` op — *not* a
        checkpoint: checkpoints truncate WALs and belong behind
        :meth:`checkpoint`'s replica catch-up wait.
        """
        if self._closed:
            raise StoreError("store is closed")
        refreshed = False
        for member in self._membership.members:
            refreshed = self._membership.rpc_primary(
                member, protocol.RefreshStats()).refreshed or refreshed
        return refreshed

    # ------------------------------------------------------------ reporting

    @property
    def revision(self) -> int:
        """The cluster watermark (total applied LSNs across shards)."""
        return self._watermark

    @property
    def live_facts(self) -> int:
        return sum(
            self._membership.rpc_primary(member, protocol.Status()).live_facts
            for member in self._membership.members
        )

    @property
    def cached_results(self) -> int | None:
        return None

    # -------------------------------------------------------------- closing

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._scatter_pool.shutdown(wait=False)
        self._membership.close()

    def __enter__(self) -> "ClusterStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
