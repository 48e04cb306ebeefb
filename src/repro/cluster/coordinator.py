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
* The one **result cache** sits here (shards keep none): every write
  and horizon move passes the writer lock, which invalidates it.

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
from ..model.time import MIN_TIME, NOW
from ..mvbt.tree import DuplicateKeyError, TimeOrderError
from ..obs import events as _events
from ..obs import log as _obslog
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..service.cache import QueryCache, cached_answer
from ..service.sanitizer import sanitized_lock
from ..service.store import StoreError
from ..sparqlt.parser import parse
from . import executor as _dist
from . import protocol
from .client import ShardClient
from .membership import Member, Membership
from .planner import ShardPlanner, shard_of
from .protocol import ProtocolError
from .telemetry import ClusterTelemetry

_QUERIES = _metrics.counter("cluster.coordinator.queries")
_UPDATES = _metrics.counter("cluster.coordinator.updates")
_WATERMARK = _metrics.gauge("cluster.coordinator.watermark")
_EVENT_UPDATE_RECOVERED = _events.event("cluster.event.update_recovered")


class ClusterStore(ClusterTelemetry):
    """Sharded, replicated drop-in for :class:`TemporalStore`.

    ``shards=1, replicas=0`` is a useful degenerate topology: every query
    is one star on shard 0, which is exactly how the golden tests pin
    1-shard vs N-shard byte-identity.
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
        checkpoint_every: int | None = None,
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
            ),
        )
        self._query_cache = (
            QueryCache(query_cache_size) if query_cache_size else None
        )
        self.checkpoint_every = checkpoint_every
        self._since_checkpoint = 0
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
            self._read_status()
        except BaseException:
            # The caller never gets an object to close(): stop whatever
            # did start.  Nothing has been written yet, so a worker needs
            # no clean shutdown and is not given time for one.
            self._membership.terminate()
            self.close()
            raise

    def _read_status(self) -> None:
        """Adopt every primary's revision and horizon (at start-up, over
        pre-existing shard directories too, and after a bulk load)."""
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
        """Evaluate a query across the cluster, as a join of subject stars
        (:func:`repro.cluster.executor.answer`).

        ``text`` is query text or a pre-parsed query, which is rendered
        back to text here: a shard gets every read as text.  Results are
        canonically sorted, so the same query over the same data is
        byte-identical regardless of shard count or which members served
        the scans.  ``profile`` is accepted for interface parity but
        profiles are per-process; the coordinator does not stitch
        shard-side operator trees.  Answers are cached as in the store,
        tagged with the watermark their read was pinned to.
        """
        if self._closed:
            raise StoreError("store is closed")
        if _metrics.ENABLED:
            _QUERIES.inc()
        with _trace.span("cluster.query"):
            return cached_answer(self._query_cache, text, self._watermark,
                                 lambda: self._answer(text), profile)[0]

    def _answer(self, text) -> QueryResult:
        if isinstance(text, str):
            query = parse(text)
        else:
            query, text = text, protocol.encode_query(text)
        watermark = self._watermark
        rows = _dist.answer(query, text, self.planner, self._gather,
                            self._horizon)
        return QueryResult(variables=query.select, rows=rows,
                           revision=watermark)

    def _gather(self, requests: list[tuple[str, list[int]]]
                ) -> list[list[dict]]:
        """Ask every (query text, shard ids) request of each of its shards:
        the first shard on this thread, so a one-shard star pays no thread
        hand-off, the rest on the scatter pool meanwhile (the futures
        carry the caller's trace context).  Per request, its shards' rows
        concatenated."""
        members, rpc = self._membership.members, self._membership.rpc_read
        asks = [(members[shard_id],
                 protocol.Query(text=text, horizon=self._horizon))
                for text, shard_ids in requests for shard_id in shard_ids]
        futures = [_trace.submit(self._scatter_pool, rpc, *ask)
                   for ask in asks[1:]]
        try:
            replies = [rpc(*asks[0])]
        finally:
            _futures.wait(futures)
        replies += [future.result() for future in futures]
        it = iter(replies)
        return [[row for _ in shard_ids for row in next(it).rows]
                for _, shard_ids in requests]

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
            shard_id = shard_of(subject, self.planner.shards)
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
            # After the bumps, as in TemporalStore._update.
            if self._query_cache is not None:
                self._query_cache.invalidate()
            self._since_checkpoint += 1
            watermark = self._watermark
            if _metrics.ENABLED:
                _UPDATES.inc()
                _WATERMARK.set(watermark)
        if (self.checkpoint_every is not None
                and self._since_checkpoint >= self.checkpoint_every):
            self.checkpoint()
        return watermark

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
            try:
                parts = self.planner.partition(graph)
                # One thread per member, so every worker builds at once;
                # the pool's exit joins them all, and only then does the
                # first failed load raise or any replica resync.
                with ThreadPoolExecutor(
                    max_workers=len(members),
                    thread_name_prefix="repro-load",
                ) as pool:
                    loads = [
                        _trace.submit(pool, self._membership.rpc_primary,
                                      member, protocol.Load(rows=rows),
                                      300.0)
                        for member, rows in zip(members, parts)
                    ]
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
            finally:
                # A load moves no watermark: the generation bump does.
                if self._query_cache is not None:
                    self._query_cache.invalidate()
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
            self._since_checkpoint = 0
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
        return None if self._query_cache is None else len(self._query_cache)

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
