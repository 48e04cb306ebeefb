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
* **Admission of bad updates** — the engine's one write check
  (:meth:`~repro.engine.RDFTX.check_update`) runs before logging, so the
  WAL stays free of records that cannot apply (duplicate inserts, deletes
  of dead facts, time-order violations).

Checkpoints run while readers continue (only writers pause): the engine is
immutable while the writer mutex is held, which is all serialization needs.
"""

from __future__ import annotations

import threading
import time as _time
from pathlib import Path

from ..engine.engine import RDFTX, QueryResult
from ..model.graph import TemporalGraph
from ..mvbt.tree import DuplicateKeyError, MVBTConfig, TimeOrderError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs import workload as _workload
from .cache import QueryCache, cached_answer
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
            update = (record.op, record.subject, record.predicate,
                      record.object, record.time)
            try:
                self.engine.apply_update(
                    *update, self.engine.check_update(*update))
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
                lsn = self._commit(op, subject, predicate, object, time)
                # After the revision bump: a concurrent reader that misses
                # here re-executes; one that hit just before served the
                # older revision it was pinned to.  Cleared outside the RW
                # lock — stale entries are already unreturnable (revision
                # tags), the clear only reclaims capacity.
                if self._query_cache is not None:
                    self._query_cache.invalidate()
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

    def _commit(self, op: str, subject: str, predicate: str, object: str,
                time: int) -> int:
        """Check, log and apply one update (callers hold ``_writer``);
        returns its LSN.  The engine's write check
        (:meth:`RDFTX.check_update`) runs before the WAL append, so a
        refused update is never logged, and the apply takes the ids it
        found."""
        ids = self.engine.check_update(op, subject, predicate, object, time)
        # WAL first: once append returns, the update survives a process
        # kill (and a machine crash after the group commit).
        lsn = self._wal.append(op, subject, predicate, object, time)
        with self._rw.write_locked():
            self.engine.apply_update(op, subject, predicate, object, time,
                                     ids)
            self._revision = lsn
        self._since_checkpoint += 1
        if _metrics.ENABLED:
            _UPDATES.inc()
        return lsn

    def sync(self) -> None:
        """Force the WAL's pending group to stable storage."""
        with self._writer:
            self._wal.sync()

    # -------------------------------------------------------------- queries

    def query(self, text, profile: bool = False) -> QueryResult:
        """Evaluate a SPARQLT query under the read lock.

        ``text`` is query text or a pre-parsed
        :class:`~repro.sparqlt.ast.Query`; only text is cacheable.

        The result's ``revision`` is the store revision (last applied LSN)
        the reader was pinned to.

        The result cache sits entirely *outside* the read lock: a hit
        is tagged with the revision the store held at lookup, as if a
        reader pinned an instant earlier (see :func:`cached_answer`).
        """
        started = _time.perf_counter()
        try:
            with _trace.span("store.query"):
                result, hit = cached_answer(
                    self._query_cache, text, self._revision,
                    lambda: self._read(text, profile), profile,
                )
                if _metrics.ENABLED:
                    _QUERIES.inc()
                    if hit:
                        # Hits never reach the engine, so the workload
                        # registry is fed here (query=None: the text alone
                        # resolves the shape via the fingerprint cache).
                        _workload.WORKLOAD.record_query(
                            None, text,
                            (_time.perf_counter() - started) * 1000.0,
                            rows=len(result.rows), cache_hit=True,
                            trace_id=_trace.current_trace_id())
                return result
        finally:
            if _metrics.ENABLED:
                _QUERY_HIST.observe(
                    (_time.perf_counter() - started) * 1000.0
                )

    def _read(self, text, profile: bool) -> QueryResult:
        with self._rw.read_locked():
            result = self.engine.query(text, profile=profile)
            result.revision = self._revision
        return result

    def raise_horizon(self, horizon: int) -> None:
        """Resolve ``NOW`` no earlier than ``horizon`` from here on (a
        cluster shard is told the cluster-wide horizon with every read;
        it keeps no result cache for the move to make stale)."""
        if horizon <= self.engine.horizon_floor:
            return
        with self._rw.write_locked():
            if horizon > self.engine.horizon_floor:
                self.engine.horizon_floor = horizon

    @property
    def revision(self) -> int:
        """LSN of the last applied update (0 for a fresh store)."""
        return self._revision

    @property
    def live_facts(self) -> int:
        return self.engine.indexes["spo"].live_records

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
