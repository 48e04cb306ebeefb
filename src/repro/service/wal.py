"""Write-ahead log for the serving layer.

An append-only file of ``insert``/``delete`` operations, written *before*
the update is applied to the in-memory engine, so a crash loses at most the
records not yet pushed to disk.  The framing is

``[file header: 8-byte magic] ([u32 length][u32 crc32][payload])*``

with each payload carrying ``(lsn, op, time, subject, predicate, object)``.
The CRC plus the length prefix make a torn tail (crash mid-write)
detectable: recovery stops at the first bad frame and truncates it away.

Durability is *group commit*: records are pushed to the OS on every append
(so a process kill never loses an acknowledged update), but the expensive
``fsync`` — which protects against machine/power failure — runs once per
``group_size`` appends, amortizing it across a burst of writes.  Explicit
:meth:`WriteAheadLog.sync` flushes the tail of a batch.

LSNs are monotonic across the life of a store, surviving checkpoint
truncation (the snapshot records the last applied LSN; replay skips frames
at or below it, which makes a crash *between* snapshot rename and WAL
truncation harmless).
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .sanitizer import check_blocking, sanitized_lock

_APPENDS = _metrics.counter("service.wal.appends")
_SYNCS = _metrics.counter("service.wal.syncs")
_TORN = _metrics.counter("service.wal.torn_tails")
_SYNC_HIST = _metrics.histogram("service.wal.sync_ms")

#: File header identifying a WAL file (8 bytes).
WAL_MAGIC = b"RTXWAL1\n"

_FRAME = struct.Struct(">II")  # payload length, crc32(payload)
_FIXED = struct.Struct(">QBq")  # lsn, op code, time

_OPS = {"insert": 0, "delete": 1}
_OP_NAMES = {code: name for name, code in _OPS.items()}

#: Upper bound on a sane payload length; anything above is a torn frame.
_MAX_PAYLOAD = 1 << 26


class WalError(Exception):
    """A malformed WAL file (bad magic / unusable header)."""


@dataclass(frozen=True)
class WalRecord:
    """One logged update operation."""

    lsn: int
    op: str  # "insert" | "delete"
    subject: str
    predicate: str
    object: str
    time: int

    def encode(self) -> bytes:
        payload = bytearray(_FIXED.pack(self.lsn, _OPS[self.op], self.time))
        for term in (self.subject, self.predicate, self.object):
            raw = term.encode("utf-8")
            payload.extend(struct.pack(">I", len(raw)))
            payload.extend(raw)
        return bytes(payload)

    @classmethod
    def decode(cls, payload: bytes) -> "WalRecord":
        lsn, op_code, time = _FIXED.unpack_from(payload, 0)
        pos = _FIXED.size
        terms = []
        for _ in range(3):
            (length,) = struct.unpack_from(">I", payload, pos)
            pos += 4
            terms.append(payload[pos : pos + length].decode("utf-8"))
            pos += length
        return cls(lsn, _OP_NAMES[op_code], terms[0], terms[1], terms[2],
                   time)


class WriteAheadLog:
    """Append-only operation log with group commit and torn-tail repair.

    Opening scans the existing file: valid frames become
    :attr:`recovered`, a torn tail is truncated, and the append position /
    next LSN are set past the last valid frame (but never below
    ``start_lsn``, which the store passes from its snapshot so LSNs stay
    monotonic across checkpoint truncation).
    """

    def __init__(self, path: str | Path, *, group_size: int = 32,
                 fsync: bool = True, start_lsn: int = 1) -> None:
        self.path = Path(path)
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.group_size = group_size
        self.fsync = fsync
        self._pending = 0
        self.recovered: list[WalRecord] = []
        self._next_lsn = start_lsn
        #: guards swapping or closing the append handle (truncate, close)
        #: against another thread doing the same.
        self._handle_lock = sanitized_lock(
            threading.Lock(), "wal.handle", allow_blocking=True
        )
        self._scan_and_repair()
        self._handle = open(self.path, "ab")

    # ------------------------------------------------------------- recovery

    def _scan_and_repair(self) -> None:
        if not self.path.exists() or self.path.stat().st_size == 0:
            _write_empty_log(self.path)
            return
        with open(self.path, "rb") as handle:
            data = handle.read()
        if data[: len(WAL_MAGIC)] != WAL_MAGIC:
            raise WalError(f"{self.path}: not a WAL file (bad magic)")
        records, good_end = _parse_frames(data, len(WAL_MAGIC))
        if good_end < len(data):
            # Torn tail from a crash mid-write: drop it.
            if _metrics.ENABLED:
                _TORN.inc()
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                check_blocking("os.fsync")
                os.fsync(handle.fileno())
        self.recovered = records
        if records:
            self._next_lsn = max(self._next_lsn, records[-1].lsn + 1)

    # -------------------------------------------------------------- logging

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def append(self, op: str, subject: str, predicate: str, object: str,
               time: int) -> int:
        """Log one operation; returns its LSN.

        The frame reaches the OS before this returns (surviving a process
        kill); it reaches the disk at the next group boundary or explicit
        :meth:`sync` (surviving a machine crash).
        """
        record = WalRecord(self._next_lsn, op, subject, predicate, object,
                           time)
        payload = record.encode()
        with _trace.span("wal.append", lsn=record.lsn):
            self._handle.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
            self._handle.write(payload)
            self._handle.flush()
        self._next_lsn += 1
        self._pending += 1
        if _metrics.ENABLED:
            _APPENDS.inc()
        if self._pending >= self.group_size:
            self.sync()
        return record.lsn

    def sync(self) -> None:
        """Group-commit barrier: push every pending record to stable
        storage."""
        if self._pending == 0:
            return
        started = time.perf_counter()
        with _trace.span("wal.sync", pending=self._pending):
            self._handle.flush()
            if self.fsync:
                check_blocking("os.fsync")
                os.fsync(self._handle.fileno())
        self._pending = 0
        if _metrics.ENABLED:
            _SYNCS.inc()
            _SYNC_HIST.observe((time.perf_counter() - started) * 1000.0)

    def truncate(self) -> None:
        """Reset the log to empty (after a checkpoint made it redundant).

        The in-memory LSN counter keeps counting, so records written after
        a truncation still sort after the snapshot's ``last_lsn``.  The
        empty log is written beside the old one and renamed over it, so
        the path always names a complete log, even across a crash.
        """
        self.sync()
        fresh = self.path.with_name(self.path.name + ".tmp")
        _write_empty_log(fresh)
        with self._handle_lock:
            self._handle.close()
            os.replace(fresh, self.path)
            self._handle = open(self.path, "ab")

    def close(self) -> None:
        if self._handle.closed:
            return
        self.sync()
        with self._handle_lock:
            self._handle.close()

    @property
    def size_bytes(self) -> int:
        self._handle.flush()
        return self.path.stat().st_size

    def stats(self) -> dict:
        """Diagnostic snapshot for ``/debug/storage`` and doctor.

        Deliberately lock- and flush-free so any thread can call it while
        a writer appends: the on-disk size may trail the handle's buffer
        by at most one unflushed frame, and the int reads race benignly.
        """
        return {
            "size_bytes": self.path.stat().st_size,
            "next_lsn": self._next_lsn,
            "pending_records": self._pending,
            "group_size": self.group_size,
            "fsync": self.fsync,
        }

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _write_empty_log(path: Path) -> None:
    """A durable log holding the header and no frame."""
    with open(path, "wb") as handle:
        handle.write(WAL_MAGIC)
        handle.flush()
        check_blocking("os.fsync")
        os.fsync(handle.fileno())


def _parse_frames(data: bytes, pos: int) -> tuple[list[WalRecord], int]:
    """Decode frames from ``data`` starting at ``pos``.

    Returns the valid records and the offset one past the last valid
    frame; a short, corrupt, or undecodable frame ends the scan there.
    """
    records: list[WalRecord] = []
    size = len(data)
    while pos + _FRAME.size <= size:
        length, crc = _FRAME.unpack_from(data, pos)
        body_start = pos + _FRAME.size
        if length > _MAX_PAYLOAD or body_start + length > size:
            break
        payload = data[body_start : body_start + length]
        if zlib.crc32(payload) != crc:
            break
        try:
            records.append(WalRecord.decode(payload))
        except (struct.error, UnicodeDecodeError, KeyError):
            break
        pos = body_start + length
    return records, pos


def read_records(path: str | Path) -> list[WalRecord]:
    """Read the valid records of a WAL file without modifying it."""
    data = Path(path).read_bytes()
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WalError(f"{path}: not a WAL file (bad magic)")
    records, _ = _parse_frames(data, len(WAL_MAGIC))
    return records
