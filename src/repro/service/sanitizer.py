"""Opt-in runtime lock-order sanitizer (``REPRO_LOCK_SANITIZER=1``).

The static rules (RL013/RL014) reason about the lock graph they can see;
this module watches the one that actually happens.  When enabled it
tracks, per thread, the stack of instrumented locks currently held and
maintains a process-global *witness graph* over lock **roles** (lockdep
style: all instances of a role share one node, so an A->B ordering
observed on one pair of instances conflicts with B->A observed on any
other).  Violations raise :class:`LockSanitizerError` immediately — at
the acquisition that would close a cycle, or at a blocking call made
under a lock whose role forbids it.

Roles instrumented by the serving and cluster layers:

==========================  ==============  =================================
role                        blocking ok?    guards
==========================  ==============  =================================
``store.rw``                no              in-memory engine (RW lock)
``store.writer``            yes (fsync)     store update/checkpoint mutex
``wal.handle``              yes (file I/O)  WAL append-handle swap vs. tail reads
``cluster.writer``          yes (RPC)       coordinator write serialization
``cluster.member.failover``  yes (RPC)      per-shard promote/reroute
``cluster.client.pool``     no              shard client socket free-list
==========================  ==============  =================================

Everything is a no-op unless the environment variable is ``"1"`` at
import time (cluster workers are fresh interpreters that inherit the
environment, so the cluster is covered end to end)
or a test calls :func:`enable`.  When disabled, :func:`sanitized_lock`
returns the raw lock unwrapped — zero steady-state overhead.

Each first-seen edge records where it was taken: the thread and its
innermost :data:`WITNESS_FRAMES` frames outside this module.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass


class LockSanitizerError(RuntimeError):
    """A lock-order cycle or forbidden blocking call was observed."""


@dataclass(frozen=True)
class _Held:
    role: str
    allow_blocking: bool


#: Caller frames a witness records, innermost first.
WITNESS_FRAMES = 6


def _witness() -> str:
    """The current thread and its innermost caller frames outside this
    module — taken only when an edge is new or closes a cycle."""
    frames: list[str] = []
    frame = sys._getframe(1)
    while frame is not None and len(frames) < WITNESS_FRAMES:
        if frame.f_code.co_filename != __file__:
            frames.append(f"{frame.f_code.co_name}:{frame.f_lineno}")
        frame = frame.f_back
    return (
        f"thread {threading.current_thread().name!r} | "
        + " <- ".join(frames)
    )


class LockTracker:
    """Per-thread held stacks plus the process-global witness graph."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._mutex = threading.Lock()
        #: role -> set of roles acquired at least once while it was held
        self._edges: dict[str, set[str]] = {}
        #: first witness of each edge, for error messages and tests
        self._witness: dict[tuple[str, str], str] = {}

    # ---------------------------------------------------------- held stack

    def _held(self) -> list[_Held]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def held_roles(self) -> tuple[str, ...]:
        """The current thread's held roles, outermost first (for tests)."""
        return tuple(entry.role for entry in self._held())

    # --------------------------------------------------------- transitions

    def check_order(self, role: str) -> None:
        """Record edges held-roles -> ``role``; raise if one closes a cycle.

        Called *before* blocking on the underlying primitive, so an
        actual ABBA deadlock surfaces as an exception on the second
        thread instead of a hang.
        """
        held = self._held()
        if not held:
            return
        with self._mutex:
            for entry in held:
                self._add_edge(entry.role, role)

    def acquired(self, role: str, allow_blocking: bool) -> None:
        """Push ``role`` onto the thread's held stack (acquire succeeded)."""
        self._held().append(_Held(role, allow_blocking))

    def released(self, role: str) -> None:
        """Pop the innermost matching entry; tolerant of enable() races."""
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index].role == role:
                del held[index]
                return

    def check_blocking(self, label: str) -> None:
        """Raise if the thread holds any lock whose role forbids blocking."""
        for entry in self._held():
            if not entry.allow_blocking:
                raise LockSanitizerError(
                    f"blocking call {label!r} while holding "
                    f"{entry.role!r} (held: "
                    f"{' -> '.join(self.held_roles())})"
                )

    # ------------------------------------------------------- witness graph

    def _add_edge(self, src: str, dst: str) -> None:
        if src == dst:
            raise LockSanitizerError(
                f"recursive acquisition of {src!r} "
                f"(already held by this thread; {_witness()})"
            )
        targets = self._edges.setdefault(src, set())
        if dst in targets:
            return
        if self._reaches(dst, src):
            back = self._witness_path(dst, src)
            raise LockSanitizerError(
                f"lock-order cycle: acquiring {dst!r} while holding "
                f"{src!r} ({_witness()}), but the reverse order was "
                f"already observed: {back}"
            )
        targets.add(dst)
        self._witness[(src, dst)] = _witness()

    def _reaches(self, src: str, dst: str) -> bool:
        frontier = [src]
        seen: set[str] = set()
        while frontier:
            node = frontier.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._edges.get(node, ()))
        return False

    def _witness_path(self, src: str, dst: str) -> str:
        """One witnessed edge chain src -> ... -> dst, for the report."""
        path = self._find_path(src, dst, [src], {src})
        if path is None:  # pragma: no cover - _reaches said it exists
            return f"{src} -> ... -> {dst}"
        legs = []
        for a, b in zip(path, path[1:]):
            legs.append(f"{a} -> {b} ({self._witness.get((a, b), '?')})")
        return "; ".join(legs)

    def _find_path(self, node, dst, path, seen):
        if node == dst:
            return path
        for nxt in sorted(self._edges.get(node, ())):
            if nxt in seen:
                continue
            found = self._find_path(nxt, dst, path + [nxt], seen | {nxt})
            if found is not None:
                return found
        return None

    # -------------------------------------------------------------- tests

    def edges(self) -> dict[str, set[str]]:
        with self._mutex:
            return {src: set(dsts) for src, dsts in self._edges.items()}

    def reset(self) -> None:
        with self._mutex:
            self._edges.clear()
            self._witness.clear()
        self._local = threading.local()


#: The process-global tracker; meaningful only while :func:`enabled`.
TRACKER = LockTracker()

_ENV_FLAG = "REPRO_LOCK_SANITIZER"
_enabled = os.environ.get(_ENV_FLAG) == "1"
_real_sleep = None


def enabled() -> bool:
    return _enabled


def enable() -> None:
    """Turn the sanitizer on (tests; production uses the env var)."""
    global _enabled
    _enabled = True
    install()


def disable() -> None:
    """Turn the sanitizer off and drop recorded state (tests)."""
    global _enabled
    _enabled = False
    TRACKER.reset()


def check_blocking(label: str) -> None:
    """Blocking-call hook for I/O sites (protocol send/recv, sleeps)."""
    if _enabled:
        TRACKER.check_blocking(label)


class SanitizedLock:
    """A ``threading.Lock`` wrapper reporting to the global tracker."""

    __slots__ = ("_raw", "role", "allow_blocking")

    def __init__(self, raw, role: str, allow_blocking: bool) -> None:
        self._raw = raw
        self.role = role
        self.allow_blocking = allow_blocking

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if _enabled:
            TRACKER.check_order(self.role)
        got = self._raw.acquire(blocking, timeout)
        if got and _enabled:
            TRACKER.acquired(self.role, self.allow_blocking)
        return got

    def release(self) -> None:
        if _enabled:
            TRACKER.released(self.role)
        self._raw.release()

    def locked(self) -> bool:
        return self._raw.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanitizedLock({self.role!r}, raw={self._raw!r})"


def sanitized_lock(raw, role: str, allow_blocking: bool = False):
    """Wrap ``raw`` for tracking, or return it unchanged when disabled.

    The decision is made at *construction* time: stores and coordinators
    built before :func:`enable` keep raw locks.  That is the right
    trade — production never pays for the wrapper, and tests enable the
    sanitizer before building the objects under test.
    """
    if not _enabled:
        return raw
    return SanitizedLock(raw, role, allow_blocking)


def install() -> None:
    """Patch ``time.sleep`` so sleeping under a no-blocking lock raises.

    Idempotent; the wrapper consults :func:`enabled` at call time, so
    :func:`disable` restores normal behaviour without unpatching.
    """
    global _real_sleep
    if _real_sleep is not None:
        return
    _real_sleep = time.sleep

    def _checked_sleep(seconds):
        check_blocking("time.sleep")
        _real_sleep(seconds)

    time.sleep = _checked_sleep


if _enabled:  # pragma: no cover - exercised via the sanitize CI job
    install()
