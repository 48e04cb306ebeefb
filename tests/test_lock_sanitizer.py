"""The runtime lock-order sanitizer (``repro.service.sanitizer``).

Every scenario is deterministic: where two "threads" are needed to
establish opposite acquisition orders, the first runs to completion and
is joined before the second starts — the witness graph is process-global
and persistent, so interleaving is unnecessary.
"""

import threading
import time

import pytest

from repro.service import sanitizer as san
from repro.service.locks import ReadWriteLock
from repro.service.sanitizer import (
    LockSanitizerError,
    SanitizedLock,
    sanitized_lock,
)
from repro.service.store import TemporalStore


@pytest.fixture
def tracker():
    """Enable the sanitizer with a clean slate; restore prior state."""
    was_enabled = san.enabled()
    san.enable()
    san.TRACKER.reset()
    yield san.TRACKER
    san.TRACKER.reset()
    if not was_enabled:
        san.disable()


def _lock(role, allow_blocking=False):
    return sanitized_lock(threading.Lock(), role, allow_blocking)


# ------------------------------------------------------------ construction


def test_disabled_returns_raw_lock():
    was_enabled = san.enabled()
    san.disable()
    try:
        raw = threading.Lock()
        assert sanitized_lock(raw, "t.role") is raw
    finally:
        if was_enabled:
            san.enable()


def test_enabled_wraps_lock(tracker):
    lock = _lock("t.role")
    assert isinstance(lock, SanitizedLock)
    with lock:
        assert tracker.held_roles() == ("t.role",)
    assert tracker.held_roles() == ()


def test_check_blocking_is_noop_when_disabled():
    was_enabled = san.enabled()
    san.disable()
    try:
        san.check_blocking("anything")  # must not raise
    finally:
        if was_enabled:
            san.enable()


# ------------------------------------------------------------ order cycles


def test_opposite_orders_across_threads_raise(tracker):
    a = _lock("t.a")
    b = _lock("t.b")

    def first_order():
        with a:
            with b:
                pass

    worker = threading.Thread(target=first_order)
    worker.start()
    worker.join()
    assert tracker.edges() == {"t.a": {"t.b"}}

    with b:
        with pytest.raises(LockSanitizerError, match="lock-order cycle"):
            a.acquire()


def test_cycle_report_names_the_reverse_witness(tracker):
    a = _lock("t.a")
    b = _lock("t.b")
    with a:
        with b:
            pass
    with b:
        with pytest.raises(LockSanitizerError) as excinfo:
            a.acquire()
    message = str(excinfo.value)
    assert "t.a -> t.b" in message  # the previously observed order
    assert "thread" in message


def test_cycle_report_names_the_function_that_took_the_first_leg(tracker):
    a = _lock("t.a")
    b = _lock("t.b")

    def take_a_then_b():
        with a:
            with b:
                pass

    take_a_then_b()
    with b:
        with pytest.raises(LockSanitizerError) as excinfo:
            a.acquire()
    first_leg = str(excinfo.value).split("already observed:")[1]
    assert "take_a_then_b" in first_leg


def test_consistent_order_never_raises(tracker):
    a = _lock("t.a")
    b = _lock("t.b")
    for _ in range(3):
        with a:
            with b:
                pass
    assert tracker.edges() == {"t.a": {"t.b"}}


def test_transitive_cycle_detected(tracker):
    a, b, c = _lock("t.a"), _lock("t.b"), _lock("t.c")
    with a:
        with b:
            pass
    with b:
        with c:
            pass
    with c:
        with pytest.raises(LockSanitizerError, match="t.a -> t.b"):
            a.acquire()


def test_recursive_acquisition_raises(tracker):
    outer = _lock("t.same")
    inner = _lock("t.same")  # distinct instance, same role
    with outer:
        with pytest.raises(LockSanitizerError, match="recursive"):
            inner.acquire()


# ------------------------------------------------------- blocking-under-lock


def test_blocking_under_forbidden_lock_raises(tracker):
    pool = _lock("t.pool", allow_blocking=False)
    with pool:
        with pytest.raises(LockSanitizerError, match="t.pool"):
            san.check_blocking("protocol.send_message")


def test_blocking_under_allowed_lock_passes(tracker):
    writer = _lock("t.writer", allow_blocking=True)
    with writer:
        san.check_blocking("protocol.send_message")  # must not raise


def test_time_sleep_is_instrumented(tracker):
    pool = _lock("t.pool", allow_blocking=False)
    with pool:
        with pytest.raises(LockSanitizerError, match="time.sleep"):
            time.sleep(0.001)
    time.sleep(0)  # fine once released


# --------------------------------------------------------- ReadWriteLock


def test_rw_lock_reports_read_and_write_sides(tracker):
    rw = ReadWriteLock()
    with rw.read_locked():
        assert tracker.held_roles() == ("store.rw",)
        with pytest.raises(LockSanitizerError):
            san.check_blocking("os.fsync")
    with rw.write_locked():
        assert tracker.held_roles() == ("store.rw",)
    assert tracker.held_roles() == ()


def test_rw_nesting_under_writer_records_the_edge(tracker):
    writer = _lock("t.writer", allow_blocking=True)
    rw = ReadWriteLock()
    with writer:
        with rw.write_locked():
            pass
    assert tracker.edges()["t.writer"] == {"store.rw"}


# ------------------------------------------------------------- integration


def test_store_update_records_writer_before_rw(tracker, tmp_path):
    store = TemporalStore(tmp_path / "store")
    try:
        store.insert("s", "p", "o", 1)
        assert store.query("SELECT ?o {s p ?o ?t}").rows
    finally:
        store.close()
    edges = tracker.edges()
    assert "store.rw" in edges.get("store.writer", set())
    # Nothing ever observed the reverse order.
    assert "store.writer" not in edges.get("store.rw", set())
