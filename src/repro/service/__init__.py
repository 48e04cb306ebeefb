"""The durable, concurrent serving layer (``repro-tx serve``).

Builds the paper's in-memory engine out into a system you can leave
running: a write-ahead log and binary snapshots for durability
(:mod:`~repro.service.wal`, :mod:`~repro.service.snapshot`), a
single-writer/multi-reader store with revision-pinned reads
(:mod:`~repro.service.store`), and a stdlib HTTP SPARQLT endpoint with
admission control (:mod:`~repro.service.server`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "requires_writer_lock": ".locks",
    "SNAPSHOT_MAGIC": ".snapshot",
    "SnapshotError": ".snapshot",
    "is_snapshot": ".snapshot",
    "load_snapshot": ".snapshot",
    "save_snapshot": ".snapshot",
    "TemporalService": ".server",
    "serve": ".server",
    "ReadWriteLock": ".locks",
    "StoreError": ".store",
    "TemporalStore": ".store",
    "WAL_MAGIC": ".wal",
    "WalError": ".wal",
    "WalRecord": ".wal",
    "WriteAheadLog": ".wal",
    "read_records": ".wal",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
