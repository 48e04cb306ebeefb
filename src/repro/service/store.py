"""The durable, concurrent temporal store behind ``repro-tx serve``.

:class:`TemporalStore` turns the bulk-loaded, single-shot :class:`~repro.engine.RDFTX`
library into a long-running service:

* **Durability** — every update is appended to a write-ahead log
  (:mod:`repro.service.wal`) *before* it is applied; checkpoints write a
  binary snapshot (:mod:`repro.service.snapshot`) and truncate the log.
  Recovery = load snapshot + replay the WAL records past its LSN.
* **Concurrency** — single-writer / multi-reader.  Writers are serialized
  by a mutex and apply under the write side of a readers-writer lock;
  queries run concurrently under the read side, pinned to the revision
  epoch (the last applied LSN) they started at.  This leans on the MVBT's
  multiversion structure: structure changes never destroy old entries, so
  a reader at revision *r* keeps seeing exactly the state at *r*.
* **Admission of bad updates** — updates are validated against the SPO
  index before logging, so the WAL stays free of no-op records
  (duplicate inserts, deletes of dead facts, time-order violations).

Checkpoints run while readers continue (only writers pause): the engine is
immutable while the writer mutex is held, which is all serialization needs.
"""

from __future__ import annotations

import threading
import time as _time
from pathlib import Path

from ..engine.engine import RDFTX, QueryResult
from ..model.graph import TemporalGraph
from ..model.time import MIN_TIME, NOW
from ..mvbt.tree import DuplicateKeyError, MVBTConfig, TimeOrderError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs import workload as _workload
from .cache import QueryCache, normalize_query
from .locks import ReadWriteLock, requires_writer_lock
from .sanitizer import sanitized_lock
from .snapshot import load_snapshot, save_snapshot
from .wal import WriteAheadLog

__all__ = ["ReadWriteLock", "StoreError", "TemporalStore"]

_UPDATES = _metrics.counter("service.store.updates")
_QUERIES = _metrics.counter("service.store.queries")
_CHECKPOINTS = _metrics.counter("service.store.checkpoints")
_REPLAYED = _metrics.counter("service.store.replayed_records")
_REPLAY_SKIPPED = _metrics.counter("service.store.replay_skipped")
_QUERY_HIST = _metrics.histogram("service.store.query_ms")
_UPDATE_HIST = _metrics.histogram("service.store.update_ms")


class StoreError(Exception):
    """Misuse of the store (e.g. loading a dataset into a non-empty one)."""


class TemporalStore:
    """A durable RDF-TX engine with single-writer/multi-reader serving.

    Usage::

        with TemporalStore("data/") as store:
            store.load_dataset(graph)          # once, on an empty store
            store.insert("UC", "president", "Carol_Christ", chronon)
            result = store.query("SELECT ?o {UC president ?o ?t}")
            print(result.revision)
    """

    SNAPSHOT_NAME = "store.snap"
    WAL_NAME = "store.wal"

    def __init__(
        self,
        directory: str | Path,
        *,
        use_optimizer: bool = True,
        config: MVBTConfig | None = None,
        group_size: int = 32,
        fsync: bool = True,
        checkpoint_every: int | None = None,
        query_cache_size: int | None = 256,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.directory / self.SNAPSHOT_NAME
        self.wal_path = self.directory / self.WAL_NAME
        #: serializes writers (updates, checkpoints, load/close).  May
        #: legitimately be held across fsync, hence allow_blocking.
        self._writer = sanitized_lock(
            threading.Lock(), "store.writer", allow_blocking=True
        )
        #: readers-writer lock guarding the in-memory engine.
        self._rw = ReadWriteLock()
        self.checkpoint_every = checkpoint_every
        self._since_checkpoint = 0
        #: WAL records past the snapshot that opening re-applied.
        self.replayed = 0
        self._closed = False
        #: revision-tagged result cache (None when disabled); hits are
        #: served without the read lock (see :meth:`query`).
        self._query_cache = (
            QueryCache(query_cache_size) if query_cache_size else None
        )
        #: wall-clock append times of recent LSNs, for replication
        #: seconds-behind telemetry.  Bounded; mutated only under
        #: ``_writer``, read lock-free (dict reads are atomic).  The WAL
        #: binary format stays timestamp-free — replay determinism is
        #: untouched.
        self._append_times: dict[int, float] = {}

        snapshot_lsn = 0
        if self.snapshot_path.exists():
            engine, meta = load_snapshot(
                self.snapshot_path, use_optimizer=use_optimizer
            )
            snapshot_lsn = meta["last_lsn"]
        else:
            optimizer = None
            if use_optimizer:
                from ..optimizer import Optimizer

                optimizer = Optimizer()
            engine = RDFTX(config=config, optimizer=optimizer)
            engine.load(TemporalGraph())
        self.engine = engine
        self._revision = snapshot_lsn

        self._wal = WriteAheadLog(
            self.wal_path, group_size=group_size, fsync=fsync,
            start_lsn=snapshot_lsn + 1,
        )
        self._replay(snapshot_lsn)

    # ------------------------------------------------------------- recovery

    @requires_writer_lock
    def _replay(self, snapshot_lsn: int) -> None:
        """Re-apply WAL records newer than the snapshot.

        Runs from ``__init__`` only, before the store is shared with any
        other thread — the constructor *is* the writer.

        Records at or below ``snapshot_lsn`` are already inside the
        snapshot (a crash between snapshot rename and WAL truncation
        leaves them behind); records that no longer apply are skipped —
        they can only arise from logs written by interrupted older runs,
        and skipping reproduces the original (failed) outcome.
        """
        for record in self._wal.recovered:
            if record.lsn <= snapshot_lsn:
                continue
            try:
                self._apply(record.op, record.subject, record.predicate,
                            record.object, record.time)
            except (DuplicateKeyError, TimeOrderError, KeyError, ValueError):
                if _metrics.ENABLED:
                    _REPLAY_SKIPPED.inc()
            else:
                self.replayed += 1
                if _metrics.ENABLED:
                    _REPLAYED.inc()
            self._revision = record.lsn
            self._since_checkpoint += 1

    # -------------------------------------------------------------- loading

    def adopt(self, engine: RDFTX) -> None:
        """Serve a pre-built engine from an *empty* store.

        Like :meth:`load_dataset` the hand-over bypasses the WAL and is
        made durable by an immediate checkpoint.
        """
        with self._writer:
            self._require_empty("adopt")
            with self._rw.write_locked():
                self.engine = engine
            if self._query_cache is not None:
                self._query_cache.invalidate()
        self.checkpoint()

    def _require_empty(self, what: str) -> None:
        if self._revision or self.engine.indexes["spo"].total_versions:
            raise StoreError(f"{what} requires an empty store")

    def load_dataset(self, graph: TemporalGraph,
                     compress: bool = True) -> None:
        """Bulk-load an initial dataset into an *empty* store.

        The engine is built the way :meth:`RDFTX.from_graph` builds one —
        plain trees, compressed once — under this store's tree config and
        optimizer thresholds, then handed over by :meth:`adopt`: bulk
        loading bypasses the WAL (logging millions of historical facts
        would dwarf the snapshot), and the checkpoint makes it durable.
        """
        self._require_empty("load_dataset")
        optimizer = self.engine.optimizer
        if optimizer is not None:
            optimizer = type(optimizer)(
                optimizer.cm, optimizer.lm, optimizer.budget_fraction
            )
        self.adopt(RDFTX.from_graph(
            graph, config=self.engine.config, optimizer=optimizer,
            compress=compress,
        ))

    # -------------------------------------------------------------- updates

    def insert(self, subject: str, predicate: str, object: str,
               time: int) -> int:
        """Durably start a fact at ``time``; returns the update's LSN."""
        return self._update("insert", subject, predicate, object, time)

    def delete(self, subject: str, predicate: str, object: str,
               time: int) -> int:
        """Durably end a live fact at ``time``; returns the update's LSN."""
        return self._update("delete", subject, predicate, object, time)

    def _update(self, op: str, subject: str, predicate: str, object: str,
                time: int) -> int:
        started = _time.perf_counter()
        with _trace.span("store.update", op=op):
            with _trace.span("store.writer.wait"):
                self._writer.acquire()
            try:
                if self._closed:
                    raise StoreError("store is closed")
                self._validate(op, subject, predicate, object, time)
                # WAL first: once append returns, the update survives a
                # process kill (and a machine crash after the group
                # commit).
                lsn = self._wal.append(op, subject, predicate, object, time)
                self._note_append_time(lsn)
                with self._rw.write_locked():
                    self._apply(op, subject, predicate, object, time)
                    self._revision = lsn
                # After the revision bump: a concurrent reader that misses
                # here re-executes; one that hit just before served the
                # older revision it was pinned to.  Cleared outside the RW
                # lock — stale entries are already unreturnable (revision
                # tags), the clear only reclaims capacity.
                if self._query_cache is not None:
                    self._query_cache.invalidate()
                self._since_checkpoint += 1
                if _metrics.ENABLED:
                    _UPDATES.inc()
            finally:
                self._writer.release()
        if _metrics.ENABLED:
            _UPDATE_HIST.observe((_time.perf_counter() - started) * 1000.0)
        if (
            self.checkpoint_every is not None
            and self._since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return lsn

    def _validate(self, op: str, subject: str, predicate: str, object: str,
                  time: int) -> None:
        if not (MIN_TIME <= time < NOW):
            raise ValueError(f"update time {time!r} outside [{MIN_TIME}, NOW)")
        watermark = max(
            tree.current_time for tree in self.engine.indexes.values()
        )
        if time < watermark:
            raise TimeOrderError(
                f"update at {time} before watermark {watermark}"
            )
        live_since = self.engine.live_since(subject, predicate, object)
        if op == "insert":
            if live_since is not None:
                raise DuplicateKeyError(
                    f"fact already live: ({subject}, {predicate}, {object})"
                )
        elif op == "delete":
            if live_since is None:
                raise KeyError(
                    f"fact not live: ({subject}, {predicate}, {object})"
                )
            if time <= live_since:
                raise TimeOrderError(
                    f"delete at {time} not after the fact's start "
                    f"{live_since}"
                )
        else:
            raise ValueError(f"unknown operation: {op!r}")

    @requires_writer_lock
    def _apply(self, op: str, subject: str, predicate: str, object: str,
               time: int) -> None:
        if op == "insert":
            self.engine.insert(subject, predicate, object, time)
        elif op == "delete":
            self.engine.delete(subject, predicate, object, time)
        else:
            raise ValueError(f"unknown operation: {op!r}")

    def sync(self) -> None:
        """Force the WAL's pending group to stable storage."""
        with self._writer:
            self._wal.sync()

    # ---------------------------------------------------------- replication

    #: How many recent LSN append times to retain for lag telemetry.
    APPEND_TIME_WINDOW = 4096

    def _note_append_time(self, lsn: int) -> None:
        """Remember when ``lsn`` became durable here (callers hold
        ``_writer``); prune beyond :data:`APPEND_TIME_WINDOW`."""
        self._append_times[lsn] = _time.time()
        while len(self._append_times) > self.APPEND_TIME_WINDOW:
            self._append_times.pop(next(iter(self._append_times)))

    def append_walltime(self, lsn: int) -> float | None:
        """Wall-clock time ``lsn`` was appended here, if still tracked.

        Shipped alongside ``wal_since`` records so replicas can report
        seconds-behind without the WAL format carrying timestamps.
        """
        return self._append_times.get(lsn)

    def wal_since(self, lsn: int) -> list:
        """Durable WAL records past ``lsn`` (the log-shipping read path).

        Lock-free: :meth:`WriteAheadLog.read_from` re-reads the file, and
        a frame is only readable once its append completed — a concurrent
        writer at worst hides its in-flight record until the next poll.
        """
        return self._wal.read_from(lsn)

    def apply_replicated(self, record) -> None:
        """Apply one shipped WAL record on a follower.

        The follower re-logs the record into its *own* WAL (log before
        apply, same as the primary) so its snapshot + WAL stack recovers
        independently.  Records at or below the current revision are
        skipped (idempotent re-delivery); a record that would *skip* an
        LSN raises :class:`StoreError` — the follower missed records
        (e.g. the primary checkpointed and truncated its log) and must
        resync from a snapshot instead of silently diverging.
        """
        with self._writer:
            if self._closed:
                raise StoreError("store is closed")
            if record.lsn <= self._revision:
                return
            if record.lsn != self._wal.next_lsn:
                raise StoreError(
                    f"replication gap: expected LSN {self._wal.next_lsn}, "
                    f"got {record.lsn}; resync from snapshot"
                )
            self._wal.append(record.op, record.subject, record.predicate,
                             record.object, record.time)
            self._note_append_time(record.lsn)
            with self._rw.write_locked():
                self._apply(record.op, record.subject, record.predicate,
                            record.object, record.time)
                self._revision = record.lsn
            if self._query_cache is not None:
                self._query_cache.invalidate()
            self._since_checkpoint += 1
            if _metrics.ENABLED:
                _UPDATES.inc()

    # -------------------------------------------------------------- queries

    def query(self, text, profile: bool = False) -> QueryResult:
        """Evaluate a SPARQLT query under the read lock.

        ``text`` is query text or a pre-parsed
        :class:`~repro.sparqlt.ast.Query`; only text is cacheable (a
        cluster shard gets every read as text, scatter sub-queries
        included).

        The result's ``revision`` is the store revision (last applied LSN)
        the reader was pinned to.

        The result cache sits entirely *outside* the read lock: a hit
        returns a result whose revision tag equals the revision the store
        held at lookup — equivalent to a reader pinned an instant
        earlier.  Profiled queries bypass the cache (profiles are
        per-execution).
        """
        started = _time.perf_counter()
        try:
            with _trace.span("store.query"):
                return self._query(text, profile, started)
        finally:
            if _metrics.ENABLED:
                _QUERY_HIST.observe(
                    (_time.perf_counter() - started) * 1000.0
                )

    def _query(self, text, profile: bool,
               started: float) -> QueryResult:
        cache = self._query_cache
        key: str | None = None
        generation = 0
        if cache is not None and not profile and isinstance(text, str):
            key = normalize_query(text)
            with _trace.span("cache.lookup"):
                hit = cache.get(key, self._revision)
            if hit is not None:
                _trace.annotate_trace(cache_hit=True)
                if _metrics.ENABLED:
                    _QUERIES.inc()
                    # Cache hits never reach the engine, so the workload
                    # registry is fed here (query=None: the text alone
                    # resolves the shape via the fingerprint text cache).
                    _workload.WORKLOAD.record_query(
                        None, text,
                        (_time.perf_counter() - started) * 1000.0,
                        rows=len(hit.rows), cache_hit=True,
                        trace_id=_trace.current_trace_id(),
                    )
                return hit
            generation = cache.generation
        _trace.annotate_trace(cache_hit=False)
        with self._rw.read_locked():
            revision = self._revision
            result = self.engine.query(text, profile=profile)
        result.revision = revision
        if key is not None:
            cache.put(key, revision, result, generation=generation)
        if _metrics.ENABLED:
            _QUERIES.inc()
        return result

    def raise_horizon(self, horizon: int) -> None:
        """Resolve ``NOW`` no earlier than ``horizon`` from here on.

        A cluster shard is told the cluster-wide horizon with every read;
        a write on another shard moves it with no update here, and a
        cached result computed under the old horizon would be stale (a
        live period's LENGTH, MONTHs and DAYs end there), so it goes.
        """
        if horizon <= self.engine.horizon_floor:
            return
        with self._rw.write_locked():
            if horizon > self.engine.horizon_floor:
                # No reader runs meanwhile, and one that ran before holds
                # a stale generation: the cache empties before any lookup
                # can see the new floor.
                if self._query_cache is not None:
                    self._query_cache.invalidate()
                self.engine.horizon_floor = horizon

    @property
    def revision(self) -> int:
        """LSN of the last applied update (0 for a fresh store)."""
        return self._revision

    @property
    def live_facts(self) -> int:
        return self.engine.indexes["spo"].live_records

    def predicates(self) -> list[str]:
        """Distinct predicate terms present at any time, sorted.

        The cluster coordinator rebuilds its predicate routing map from
        this inventory when it starts over existing shard directories.
        The ids come off the SPO leaves' keys, with no interval stitching
        (a fact inserted and ended within one chronon still names its
        predicate: routing then asks a shard more, never fewer).  Runs
        under the read lock so the walk cannot race a concurrent update.
        """
        with self._rw.read_locked():
            pids = {
                key[1]
                for leaf in self.engine.indexes["spo"].leaf_nodes()
                for key, _, _ in leaf.rows()
            }
        return sorted(map(self.engine.dictionary.decode, pids))

    @property
    def cached_results(self) -> int | None:
        """Entries currently in the result cache (None when disabled)."""
        if self._query_cache is None:
            return None
        return len(self._query_cache)

    def storage_report(self) -> dict:
        """Full storage-health report (``/debug/storage``, doctor).

        The engine walk runs under the read lock (a concurrent writer
        must not restructure nodes mid-walk); WAL and cache stats are
        read lock-free afterwards — they are monotonic counters where a
        benign race only skews a diagnostic by one in-flight update.
        """
        from ..obs import introspect as _introspect

        with self._rw.read_locked():
            report = _introspect.engine_report(self.engine)
        wal = self._wal.stats()
        wal["records_since_checkpoint"] = self._since_checkpoint
        report["store"] = {
            "revision": self._revision,
            "live_facts": self.live_facts,
            "wal": wal,
            "result_cache": (
                {
                    "entries": len(self._query_cache),
                    "capacity": self._query_cache.capacity,
                }
                if self._query_cache is not None else None
            ),
        }
        return report

    # ---------------------------------------------------------- maintenance

    def checkpoint(self) -> Path:
        """Snapshot the engine and truncate the WAL.

        Holds the writer mutex (no update can interleave) but *not* the
        read lock — the engine is immutable while no writer runs, so
        readers keep serving during serialization.  The snapshot is
        renamed into place before the WAL is truncated; a crash in
        between merely leaves records the next recovery skips by LSN.
        """
        with self._writer:
            if self._closed:
                raise StoreError("store is closed")
            self._wal.sync()
            path = save_snapshot(
                self.engine, self.snapshot_path, last_lsn=self._revision
            )
            self._wal.truncate()
            self._since_checkpoint = 0
            if _metrics.ENABLED:
                _CHECKPOINTS.inc()
            return path

    def refresh_statistics(self) -> bool:
        """Eagerly rebuild optimizer statistics (writer-exclusive)."""
        with self._writer, self._rw.write_locked():
            return self.engine.refresh_statistics()

    def close(self) -> None:
        """Flush the WAL and release the log handle (no implicit
        checkpoint — recovery replays the log)."""
        with self._writer:
            if self._closed:
                return
            self._closed = True
            self._wal.close()

    def __enter__(self) -> "TemporalStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
