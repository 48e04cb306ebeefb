"""Synchronized temporal join over two MVBT indices (Section 5.2.2).

The synchronized join of Zhang et al. (ICDE 2002) walks two MVBTs in
lock-step: it pairs up the leaves intersecting the right border of the query
region, joins them, and follows backward links of both sides.  It avoids
materializing either input, at the price of revisiting pages; RDF-TX adds a
record cache of recently visited leaves so each leaf's records are decoded
once (the optimization described at the end of Section 5.2.2).

The join condition here is the RDF-TX temporal-join primitive: equality on a
key component pair plus non-empty temporal intersection.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict, defaultdict
from typing import Callable, Iterator

from ..model.time import MIN_TIME, NOW, Period, PeriodSet
from .entry import Key, MIN_KEY
from .node import LeafNode
from .scan import MAX_KEY, _visit_leaves, range_interval_scan
from .tree import MVBT


def hash_join(
    left: Iterator[tuple[Key, Period, object]],
    right: Iterator[tuple[Key, Period, object]],
    left_key: Callable[[Key], object],
    right_key: Callable[[Key], object],
) -> Iterator[tuple[Key, Key, PeriodSet]]:
    """Temporal hash join of two scan streams.

    Builds a hash table on the left stream keyed by ``left_key`` (with
    per-record coalesced periods), then probes with the right stream one
    piece at a time: each right piece is intersected against its matching
    left records immediately, and the surviving intersection pieces are
    coalesced per ``(left_record_key, right_record_key)`` group.  Peak
    memory is the left table plus the join *output* — the right stream is
    never materialized.
    """
    table: dict[object, dict[Key, list[Period]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for key, period, _ in left:
        table[left_key(key)][key].append(period)
    coalesced: dict[object, dict[Key, PeriodSet]] = {
        join_key: {k: PeriodSet(parts) for k, parts in records.items()}
        for join_key, records in table.items()
    }
    pairs: dict[tuple[Key, Key], list[Period]] = {}
    for rkey, rperiod, _ in right:
        matches = coalesced.get(right_key(rkey))
        if not matches:
            continue
        piece = PeriodSet.single(rperiod)
        for lkey, lperiods in matches.items():
            common = lperiods.intersect(piece)
            if not common.is_empty:
                pairs.setdefault((lkey, rkey), []).extend(common)
    for (lkey, rkey), parts in pairs.items():
        yield lkey, rkey, PeriodSet(parts)


class _LeafCache:
    """Decoded-records LRU cache for synchronized join page visits.

    A hit promotes the leaf to most-recently-used, so the hot left page
    paired against a run of right pages stays resident for the whole run
    (FIFO eviction would rotate it out mid-join).  Entries key on the
    leaf's stable ``uid`` — ``id(leaf)`` can alias after a collected node's
    address is reused.
    """

    def __init__(self, capacity: int = 64) -> None:
        self._capacity = capacity
        self._cache: OrderedDict[int, list[tuple[Key, Period]]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def records(self, leaf: LeafNode) -> list[tuple[Key, Period]]:
        found = self._cache.get(leaf.uid)
        if found is not None:
            self.hits += 1
            self._cache.move_to_end(leaf.uid)
            return found
        self.misses += 1
        decoded = []
        for key, start, end in leaf.records():
            period = leaf.effective_period(start, end)
            if period is not None:
                decoded.append((key, period))
        self._cache[leaf.uid] = decoded
        if len(self._cache) > self._capacity:
            self._cache.popitem(last=False)
        return decoded


def synchronized_join(
    left_tree: MVBT,
    right_tree: MVBT,
    left_key: Callable[[Key], object],
    right_key: Callable[[Key], object],
    key_low: Key = MIN_KEY,
    key_high: Key = MAX_KEY,
    t1: int = MIN_TIME,
    t2: int = NOW,
    cache_capacity: int = 64,
    right_key_low: Key | None = None,
    right_key_high: Key | None = None,
) -> Iterator[tuple[Key, Key, PeriodSet]]:
    """Cache-optimized synchronized join of two MVBTs over a query region.

    Used when a join input covers a large portion of its index (e.g. "all
    triples valid in a period"): instead of materializing both scans, leaves
    of both trees inside the region are paired and joined page-by-page, with
    recently decoded pages cached.  ``right_key_low/high`` override the key
    range on the right tree when the two patterns scan different regions.
    """
    r_low = key_low if right_key_low is None else right_key_low
    r_high = key_high if right_key_high is None else right_key_high
    border = min(t2 - 1, min(left_tree.current_time, right_tree.current_time))
    if border < MIN_TIME or t1 >= t2:
        return
    cache = _LeafCache(cache_capacity)
    left_leaves = list(
        _visit_leaves(left_tree, key_low, key_high, t1, t2, border)
    )
    # Right leaves sorted by lifetime start: the leaves overlapping one
    # left leaf's lifetime form the prefix with ``start < lleaf.death``
    # (found by bisect), which the pairing loop walks in lock-step instead
    # of rescanning all R pages for each of the L left pages.
    right_leaves = sorted(
        _visit_leaves(right_tree, r_low, r_high, t1, t2, border),
        key=lambda leaf: leaf.start,
    )
    right_starts = [leaf.start for leaf in right_leaves]
    # Pair pages whose lifetimes intersect; records within are then matched
    # on the join key and on temporal intersection.
    pieces: dict[tuple[Key, Key], list[Period]] = defaultdict(list)
    for lleaf in left_leaves:
        l_records = [
            (key, period)
            for key, period in cache.records(lleaf)
            if key_low <= key < key_high and period.start < t2 and t1 < period.end
        ]
        if not l_records:
            continue
        by_join: dict[object, list[tuple[Key, Period]]] = defaultdict(list)
        for key, period in l_records:
            by_join[left_key(key)].append((key, period))
        window_end = bisect_left(right_starts, lleaf.death)
        for rleaf in right_leaves[:window_end]:
            if rleaf.death <= lleaf.start:
                continue
            for rkey, rperiod in cache.records(rleaf):
                if not (r_low <= rkey < r_high):
                    continue
                if not (rperiod.start < t2 and t1 < rperiod.end):
                    continue
                for lkey, lperiod in by_join.get(right_key(rkey), ()):
                    common = lperiod.intersect(rperiod)
                    if common is not None:
                        pieces[(lkey, rkey)].append(common)
    for (lkey, rkey), parts in pieces.items():
        yield lkey, rkey, PeriodSet(parts)
