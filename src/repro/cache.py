"""Shared cache primitives for the read path.

One thread-safe LRU with optional metrics hooks, used by

* the engine's compiled-plan cache (:mod:`repro.engine.engine`) — plans
  depend only on the dictionary (append-only, ids never change) and on
  the optimizer statistics, so they survive writes and are dropped only
  when the statistics are rebuilt, and
* the serving layer's revision-tagged result cache
  (:mod:`repro.service.cache`) — results depend on the data, so every
  entry is tagged with the store revision it was computed at and the
  whole cache is invalidated when a writer applies.

The class deliberately stays dumb: no TTLs, no sizing heuristics, just
capacity-bounded recency eviction.  Policy (what to key on, when to
invalidate) lives with the callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from .obs.metrics import Counter

__all__ = ["LRUCache"]


class LRUCache:
    """A capacity-bounded, thread-safe least-recently-used mapping.

    A hit promotes the entry to most-recently-used; inserting past
    ``capacity`` evicts the least-recently-used entry.  The optional
    ``hits`` / ``misses`` / ``evictions`` counters (from
    :mod:`repro.obs.metrics`) are bumped on the matching events — they
    no-op under ``REPRO_OBS=0`` like every other metric.
    """

    __slots__ = ("capacity", "_data", "_lock", "_hits", "_misses",
                 "_evictions")

    def __init__(
        self,
        capacity: int,
        hits: Counter | None = None,
        misses: Counter | None = None,
        evictions: Counter | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = hits
        self._misses = misses
        self._evictions = evictions

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (promoted to most-recently-used), or
        ``default``."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                if self._misses is not None:
                    self._misses.inc()
                return default
            self._data.move_to_end(key)
        if self._hits is not None:
            self._hits.inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/replace ``key``, evicting the LRU entry when full."""
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                evicted += 1
        if evicted and self._evictions is not None:
            self._evictions.inc(evicted)

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
        return dropped

    def values(self) -> list[Any]:
        """A snapshot of the cached values, least-recently-used first (no
        entry is promoted)."""
        with self._lock:
            return list(self._data.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data
