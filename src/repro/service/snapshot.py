"""Binary snapshots of a whole RDF-TX engine.

A snapshot is the durable image the serving layer checkpoints to: the
dictionary, the three compressed MVBT forests (raw leaf buffers included, so
restore pays no re-encode, and each tree's packed flag, so the restored
index keeps creating its leaves packed) and — when an optimizer is
attached — its temporal histogram.  The trees are the history: no row
list is stored beside them (older files carry one; it is ignored).  Together
with the WAL (:mod:`repro.service.wal`) it gives crash recovery: load the
snapshot, replay the log records past the snapshot's ``last_lsn``.

Files start with an 8-byte magic (:data:`SNAPSHOT_MAGIC`) so tools can
auto-detect them (``repro-tx info/query/shell`` accept snapshots wherever
they accept temporal N-Quads, skipping the parse + bulk-load + compress
pipeline).  The body is a pickled plain-data payload — node graphs are
flattened to tables by :meth:`repro.mvbt.tree.MVBT.dump_state` first, so
loading never recurses deeply.  Snapshots are a trusted format (your own
data directory), like pickle itself.
"""

from __future__ import annotations

import os
import pickle
import time as _time
from pathlib import Path

from ..engine.engine import RDFTX
from ..engine.patterns import INDEX_ORDERS
from ..model.dictionary import Dictionary
from ..mvbt.tree import MVBT, MVBTConfig
from ..obs import metrics as _metrics
from .sanitizer import check_blocking

_SAVES = _metrics.counter("service.snapshot.saves")
_LOADS = _metrics.counter("service.snapshot.loads")
_SAVE_MS = _metrics.histogram("service.snapshot.save_ms")
_LOAD_MS = _metrics.histogram("service.snapshot.load_ms")

#: File header identifying a snapshot (8 bytes).
SNAPSHOT_MAGIC = b"RTXSNAP1"

#: Payload schema version.  Version 2 trees may hold inline integer ids
#: (:mod:`repro.model.dictionary`), which version-1 readers would decode
#: as unknown; version-1 files restore unchanged, their numbers keeping
#: the table ids they were saved with.  Version 3 packed leaves store no
#: delta bases (a leaf's bases are its header); a restore re-encodes an
#: older packed leaf (:meth:`CompressedLeafStore.from_state`).
SNAPSHOT_VERSION = 3

#: Every version :func:`restore_engine` reads.
_READABLE_VERSIONS = (1, 2, 3)


class SnapshotError(Exception):
    """An unreadable or incompatible snapshot file."""


def is_snapshot(path: str | Path) -> bool:
    """Whether ``path`` starts with the snapshot magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(SNAPSHOT_MAGIC)) == SNAPSHOT_MAGIC
    except OSError:
        return False


def serialize_engine(engine: RDFTX, *, last_lsn: int = 0) -> dict:
    """The plain-data snapshot payload of an engine."""
    dictionary = engine.dictionary or Dictionary()
    cfg = engine.config
    payload: dict = {
        "version": SNAPSHOT_VERSION,
        # Provenance metadata only — never read back into engine state, so
        # the wall-clock read cannot make two restores diverge.
        "created_at": _time.time(),  # repro-lint: disable=RL006
        "last_lsn": last_lsn,
        "config": (cfg.block_capacity, cfg.weak_min, cfg.epsilon),
        "dictionary": list(dictionary),
        "indexes": {
            name: tree.dump_state() for name, tree in engine.indexes.items()
        },
        "graph": None,  # once the rows; older builds index the key
        "statistics": None,
        "optimizer_params": None,
    }
    optimizer = engine.optimizer
    if optimizer is not None:
        payload["optimizer_params"] = (
            optimizer.cm, optimizer.lm, optimizer.budget_fraction
        )
        if optimizer.statistics is not None:
            payload["statistics"] = optimizer.statistics.histogram
    return payload


def restore_engine(payload: dict, *, use_optimizer: bool = True) -> RDFTX:
    """Rebuild an engine from a snapshot payload."""
    if payload.get("version") not in _READABLE_VERSIONS:
        raise SnapshotError(
            f"unsupported snapshot version: {payload.get('version')!r}"
        )
    dictionary = Dictionary.from_table(payload["dictionary"])
    optimizer = None
    if use_optimizer and payload["optimizer_params"] is not None:
        from ..optimizer import Optimizer

        cm, lm, budget_fraction = payload["optimizer_params"]
        optimizer = Optimizer(cm=cm, lm=lm, budget_fraction=budget_fraction)
    capacity, weak_min, epsilon = payload["config"]
    engine = RDFTX(
        config=MVBTConfig(capacity, weak_min, epsilon), optimizer=optimizer
    )
    engine.dictionary = dictionary
    for name in INDEX_ORDERS:
        engine.indexes[name] = MVBT.load_state(
            payload["indexes"][name], engine.memo
        )
    if optimizer is not None:
        histogram = payload["statistics"]
        # A histogram saved before writes kept it current lacks the raw
        # size its budget follows: rebuild it, as when none was saved.
        if histogram is not None and hasattr(histogram, "raw_bytes"):
            from ..optimizer.statistics import Statistics

            optimizer.statistics = Statistics(histogram, dictionary)
        else:
            engine.refresh_statistics()
    return engine


def save_snapshot(engine: RDFTX, path: str | Path, *,
                  last_lsn: int = 0) -> Path:
    """Atomically write a snapshot of ``engine`` to ``path``.

    The payload goes to a temporary sibling first, is fsynced, and is then
    renamed over the target — a crash mid-save leaves the previous
    snapshot (or none) intact, never a half-written file.
    """
    started = _time.perf_counter()
    path = Path(path)
    payload = serialize_engine(engine, last_lsn=last_lsn)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC)
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        check_blocking("os.fsync")
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    if _metrics.ENABLED:
        _SAVES.inc()
        _SAVE_MS.observe((_time.perf_counter() - started) * 1000.0)
    return path


def load_snapshot(path: str | Path,
                  *, use_optimizer: bool = True) -> tuple[RDFTX, dict]:
    """Load a snapshot; returns ``(engine, meta)``.

    ``meta`` carries the non-structural payload fields (``last_lsn``,
    ``created_at``, ``version``).
    """
    started = _time.perf_counter()
    path = Path(path)
    with open(path, "rb") as handle:
        magic = handle.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotError(f"{path}: not a snapshot file (bad magic)")
        try:
            payload = pickle.load(handle)
        except Exception as error:
            raise SnapshotError(f"{path}: corrupt snapshot: {error}") from error
    engine = restore_engine(payload, use_optimizer=use_optimizer)
    meta = {
        "last_lsn": payload.get("last_lsn", 0),
        "created_at": payload.get("created_at"),
        "version": payload.get("version"),
    }
    if _metrics.ENABLED:
        _LOADS.inc()
        _LOAD_MS.observe((_time.perf_counter() - started) * 1000.0)
    return engine, meta
