"""Ring-buffered cluster event log.

Worker start-ups, readiness and deaths are rare, high-signal state
transitions: exactly the things an operator greps for after an incident.
Scattered warning lines are easy to lose, so each transition is recorded
twice — appended to a bounded in-memory ring served at ``/debug/events``,
and mirrored as a structured log line through :mod:`repro.obs.log` so
log shippers see the same record.

Event names are dotted paths (``cluster.event.member_dead``) drawn from
:data:`repro.obs.catalog.EVENTS`.  A recording module binds each name it
uses once, at module level, with :func:`event`, which refuses an
uncataloged name, so a typo fails at import rather than on the error
path that records it; :meth:`EventLog.record` refuses one too.
``REPRO_OBS=0`` turns recording into a no-op.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from . import catalog as _catalog
from . import log as _obslog
from . import metrics as _metrics

__all__ = ["EventLog", "EVENTS", "event"]

#: Default ring capacity: enough for any plausible incident window while
#: bounding /debug/events payloads and coordinator memory.
DEFAULT_CAPACITY = 256


def event(name: str) -> str:
    """``name``, once the catalog lists it as an event; else ``KeyError``.

    Bind the result at module level and pass it to :meth:`EventLog.record`.
    """
    _catalog.require(name, _catalog.EVENTS, "event")
    return name


class EventLog:
    """Thread-safe bounded ring of structured cluster events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def record(self, event: str, *, level: str = "info",
               **fields: Any) -> dict[str, Any] | None:
        """Append one event and mirror it to the structured log.

        ``None`` field values are dropped (an event outside any trace has
        ``trace_id=None``; serializing that noise helps nobody).  Returns
        the stored record, or ``None`` when observability is disabled.
        An uncataloged ``event`` raises ``KeyError`` either way.
        """
        _catalog.require(event, _catalog.EVENTS, "event")
        if not _metrics.ENABLED:
            return None
        clean = {key: value for key, value in fields.items()
                 if value is not None}
        entry: dict[str, Any] = {
            "ts": round(time.time(), 6),
            "event": event,
            "level": level,
        }
        entry.update(clean)
        with self._lock:
            self._ring.append(entry)
            self._counts[event] = self._counts.get(event, 0) + 1
        _obslog.LOGGER.log(level, event, **clean)
        return entry

    def recent(self, limit: int = 100) -> list[dict[str, Any]]:
        """The newest ``limit`` events, newest first."""
        if limit <= 0:
            return []
        with self._lock:
            snapshot = list(self._ring)
        snapshot.reverse()
        return snapshot[:limit]

    def counts(self) -> dict[str, int]:
        """Lifetime per-event-name totals (not bounded by the ring)."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._counts.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


#: The process-global event log (coordinator and workers each have one;
#: the coordinator's /debug/events handler merges them over RPC).
EVENTS = EventLog()

