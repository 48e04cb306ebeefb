"""Write-ahead log: framing, recovery, torn-tail repair, group commit."""

import os

import pytest

from repro.service.wal import (
    WAL_MAGIC,
    WalError,
    WalRecord,
    WriteAheadLog,
    read_records,
)


def _fill(wal, n, start=0):
    for i in range(n):
        wal.append("insert", f"s{start + i}", "p", f"o{start + i}",
                   1000 + start + i)


class TestRoundTrip:
    def test_record_encode_decode(self):
        record = WalRecord(7, "delete", "Ünïcode subject", "p", "o with spaces",
                           12345)
        assert WalRecord.decode(record.encode()) == record

    def test_append_and_read_back(self, tmp_path):
        path = tmp_path / "w.wal"
        with WriteAheadLog(path) as wal:
            lsns = [
                wal.append("insert", "UC", "president", "Yudof", 100),
                wal.append("delete", "UC", "president", "Yudof", 200),
            ]
        assert lsns == [1, 2]
        records = read_records(path)
        assert [(r.lsn, r.op, r.subject, r.time) for r in records] == [
            (1, "insert", "UC", 100),
            (2, "delete", "UC", 200),
        ]

    def test_reopen_continues_lsns(self, tmp_path):
        path = tmp_path / "w.wal"
        with WriteAheadLog(path) as wal:
            _fill(wal, 3)
        with WriteAheadLog(path) as wal:
            assert [r.lsn for r in wal.recovered] == [1, 2, 3]
            assert wal.append("insert", "x", "y", "z", 5000) == 4


class TestRecovery:
    def test_fresh_file_gets_magic(self, tmp_path):
        path = tmp_path / "w.wal"
        WriteAheadLog(path).close()
        assert path.read_bytes() == WAL_MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wal"
        path.write_bytes(b"NOTAWAL!" + b"x" * 100)
        with pytest.raises(WalError):
            WriteAheadLog(path)

    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "w.wal"
        with WriteAheadLog(path) as wal:
            _fill(wal, 5)
        good_size = path.stat().st_size
        # Simulate a crash mid-write: append half a frame.
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x20\xde\xad")
        with WriteAheadLog(path) as wal:
            assert len(wal.recovered) == 5
        assert path.stat().st_size == good_size

    def test_corrupt_crc_stops_scan(self, tmp_path):
        path = tmp_path / "w.wal"
        with WriteAheadLog(path) as wal:
            _fill(wal, 3)
        data = bytearray(path.read_bytes())
        # Flip a byte inside the *second* frame's payload.
        first_end = len(WAL_MAGIC) + 8 + len(
            WalRecord(1, "insert", "s0", "p", "o0", 1000).encode()
        )
        data[first_end + 12] ^= 0xFF
        path.write_bytes(bytes(data))
        with WriteAheadLog(path) as wal:
            # Only the record before the corruption survives.
            assert [r.lsn for r in wal.recovered] == [1]

    def test_truncate_resets_file_not_lsn(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path)
        _fill(wal, 4)
        wal.truncate()
        assert read_records(path) == []
        assert wal.append("insert", "a", "b", "c", 9000) == 5
        wal.close()

    def test_start_lsn_floor(self, tmp_path):
        # After a checkpoint at LSN 10 and WAL truncation, a restart must
        # not reuse LSNs <= 10.
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path, start_lsn=11)
        assert wal.append("insert", "a", "b", "c", 1) == 11
        wal.close()


class TestGroupCommit:
    def test_sync_counts(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        wal = WriteAheadLog(tmp_path / "w.wal", group_size=3)
        synced.clear()  # header creation fsyncs once
        _fill(wal, 7)
        assert len(synced) == 2  # at records 3 and 6
        wal.sync()
        assert len(synced) == 3  # the tail of the batch
        wal.sync()
        assert len(synced) == 3  # idempotent when nothing is pending
        wal.close()

    def test_no_fsync_mode(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        wal = WriteAheadLog(tmp_path / "w.wal", group_size=1, fsync=False)
        synced.clear()
        _fill(wal, 5)
        wal.sync()
        assert synced == []
        # Records still reach the OS: readable from another handle.
        assert len(read_records(tmp_path / "w.wal")) == 5
        wal.close()

    def test_group_size_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "w.wal", group_size=0)


class TestReadFrom:
    """Reading a log file from outside its writer (``read_records``)."""

    def test_sees_unflushed_appends(self, tmp_path):
        # Records acknowledged but still inside the group-commit window
        # reach the OS before the ack, so they are in the file (and
        # survive a process kill).
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path, group_size=1000)
        _fill(wal, 3)
        assert [r.lsn for r in read_records(path)] == [1, 2, 3]
        wal.close()

    def test_foreign_reader_on_live_file(self, tmp_path):
        # A second (read-only) handle on a WAL another process owns.
        path = tmp_path / "w.wal"
        writer = WriteAheadLog(path)
        _fill(writer, 4)
        reader = WriteAheadLog(path, start_lsn=1)
        # Hand the reader's own (empty-position) handle a closed state so
        # only the parse path runs; read_records is the simpler API here.
        reader.close()
        assert [r.lsn for r in read_records(path)] == [1, 2, 3, 4]
        writer.close()

    def test_torn_tail_stops_read_without_repair(self, tmp_path):
        # A torn frame appearing under an *open* WAL (e.g. a reader racing
        # the writer's partial frame): read_records stops at the tear and
        # must not modify the file — repair belongs to the owning
        # recovery path, not to a read.
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path)
        _fill(wal, 5)
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x10\xba\xad")
        size_torn = path.stat().st_size
        assert [r.lsn for r in read_records(path)] == [1, 2, 3, 4, 5]
        assert path.stat().st_size == size_torn  # untouched by the read
        wal.close()
        # The next owning open *does* repair it.
        wal2 = WriteAheadLog(path)
        assert path.stat().st_size < size_torn
        assert [r.lsn for r in read_records(path)] == [1, 2, 3, 4, 5]
        wal2.close()

    def test_read_from_after_truncate_sees_only_new_records(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path)
        _fill(wal, 5)
        wal.truncate()
        _fill(wal, 2, start=5)
        assert [r.lsn for r in read_records(path)] == [6, 7]
        wal.close()

    def test_read_from_bad_magic(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path)
        wal.close()
        path.write_bytes(b"NOTAWAL!")
        with pytest.raises(WalError):
            read_records(path)
