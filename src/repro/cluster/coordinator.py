"""The cluster coordinator: launch, route, gather.

:class:`ClusterStore` duck-types :class:`~repro.service.store.TemporalStore`
(``query`` / ``insert`` / ``delete`` / ``checkpoint`` / ``revision`` /
``live_facts`` / ``storage_report`` / ``close``), so the existing HTTP
server fronts a cluster without changing a single handler.

Topology: N shards, one worker process each, all fresh interpreters (a
fork would clone live thread-pool and lock state; see :mod:`.worker`)
with directories laid out under the coordinator's own::

    dir/shard-0/            shard 0: its store's snapshot and WAL
    dir/shard-1/            ...

Consistency model — single coordinator, single writer per shard:

* Writes route to the subject's owner shard; the **cluster revision
  watermark** is the sum of per-shard applied LSNs, bumped under the
  coordinator's writer lock, so it is monotonic and every read reports
  the watermark it executed under.
* A cluster-wide **time watermark** totally orders update chronons
  across shards (each shard alone would only enforce its local maximum,
  letting history interleave inconsistently between shards).
* Every RPC goes through :meth:`Membership.rpc_primary`; a dead worker
  raises :class:`~.membership.ShardDown` until the cluster is reopened
  over its directory — see :mod:`.membership`.
* The one **result cache** sits here (shards keep none): every write
  and horizon move passes the writer lock, which invalidates it.

This module keeps routing, the write path, bulk load and checkpoint
(everything under the ``cluster.writer`` lock); the worker fleet lives
in :mod:`.membership`, health / federated metrics / events
in :mod:`.telemetry`, the pooled client in :mod:`.client`, and the
messages all of them exchange with the workers in :mod:`.protocol`.
"""

from __future__ import annotations

import threading
from concurrent import futures as _futures
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..engine.engine import QueryResult
from ..model.time import MIN_TIME, NOW
from ..mvbt.tree import TimeOrderError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..service.cache import QueryCache, cached_answer
from ..service.sanitizer import sanitized_lock
from ..service.store import StoreError
from ..sparqlt.parser import parse
from . import executor as _dist
from . import protocol
from .membership import Membership
from .planner import ShardPlanner, shard_of
from .telemetry import ClusterTelemetry

_QUERIES = _metrics.counter("cluster.coordinator.queries")
_UPDATES = _metrics.counter("cluster.coordinator.updates")
_WATERMARK = _metrics.gauge("cluster.coordinator.watermark")


class ClusterStore(ClusterTelemetry):
    """Sharded drop-in for :class:`TemporalStore`.

    ``shards=1`` is a useful degenerate topology: every query is one star
    on shard 0, which is exactly how the golden tests pin 1-shard vs
    N-shard byte-identity.  ``replicas`` takes 0 alone: a shard is one
    worker, durable through its own WAL and snapshot.
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
        if replicas != 0:
            raise ValueError(f"replicas must be 0, got {replicas}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.planner = ShardPlanner(shards)
        self._membership = Membership(
            self.directory, shards,
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
        """Adopt every shard's revision and horizon (at start-up, over
        pre-existing shard directories too, and after a bulk load)."""
        self._watermark = 0
        self._time_watermark = MIN_TIME
        self._horizon = 1
        for member in self._membership.members:
            status = member.primary.rpc(protocol.Status())
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
        members, rpc = self._membership.members, self._membership.rpc_primary
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
            # Intentional hold: the writer lock serialises updates
            # cluster-wide, so the shard RPC happens under it by design;
            # bounded by the per-RPC socket timeout.
            self._membership.rpc_primary(member, update)
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

    # -------------------------------------------------------------- loading

    def load_dataset(self, graph) -> None:
        """Bulk-load an initial dataset: partition, then load every shard
        (each checkpoints, making the load durable)."""
        if self._closed:
            raise StoreError("store is closed")
        members = self._membership.members
        with self._writer:
            try:
                parts = self.planner.partition(graph)
                # One thread per member, so every worker builds at once;
                # the pool's exit joins them all, and only then does the
                # first failed load raise.
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
            finally:
                # A load moves no watermark: the generation bump does.
                if self._query_cache is not None:
                    self._query_cache.invalidate()
        self._read_status()

    # ---------------------------------------------------------- maintenance

    def checkpoint(self) -> Path:
        """Checkpoint every shard: each snapshots, then truncates its WAL."""
        if self._closed:
            raise StoreError("store is closed")
        with self._writer:
            # Intentional hold: checkpoint needs a write-quiesced cluster,
            # so the checkpoint RPCs run under the writer lock.
            for member in self._membership.members:
                self._membership.rpc_primary(member, protocol.Checkpoint())
            self._since_checkpoint = 0
        return self.directory

    def refresh_statistics(self) -> bool:
        """Eagerly rebuild optimizer statistics on every shard.

        Dispatches the dedicated ``refresh_stats`` op — *not* a
        checkpoint, which would also truncate every WAL.
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
