"""Link-based range-interval scan on MVBT (Section 5.2.1, Figure 4).

A SPARQLT query pattern translates to a *query region*: a key range
``[key_low, key_high)`` crossed with a time range ``[t1, t2)``.  The scan

1. finds the leaves intersecting the **right border** of the region by a
   B+-tree-style descent at the latest query version,
2. follows **backward links** to every predecessor whose lifetime intersects
   the time range, and
3. emits the matching entries of all visited leaves.

Entries are clamped to each node's lifetime; a record that lived across
version splits is emitted as several contiguous pieces which the caller
coalesces into a :class:`~repro.model.time.PeriodSet`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Iterator

from ..model.time import MIN_TIME, NOW, Period, PeriodSet
from ..obs import metrics as _metrics
from .entry import Key, MAX_KEY_COMPONENT, MIN_KEY
from .node import IndexNode, LeafNode, Node
from .tree import MVBT

#: Upper extremum usable as a key-range bound.
MAX_KEY: Key = (MAX_KEY_COMPONENT, MAX_KEY_COMPONENT, MAX_KEY_COMPONENT, MAX_KEY_COMPONENT)

# Scan instrumentation (REPRO_OBS=0 skips every update).  Counts are
# accumulated locally per scan and published once, so the per-entry hot
# loop stays untouched.
_SCANS = _metrics.counter("mvbt.scan.scans")
_LEAVES = _metrics.counter("mvbt.scan.leaves_visited")
_EXAMINED = _metrics.counter("mvbt.scan.entries_examined")
_PRUNED = _metrics.counter("mvbt.scan.entries_pruned")
_EMITTED = _metrics.counter("mvbt.scan.entries_emitted")


def prefix_range(prefix: tuple) -> tuple[Key, Key]:
    """The key range covering every key starting with ``prefix``.

    Tuple comparison makes ``prefix`` itself the tight lower bound and
    ``prefix + (MAX_KEY_COMPONENT,)`` an upper bound no real key reaches.
    """
    return tuple(prefix), tuple(prefix) + (MAX_KEY_COMPONENT,)


def query_leaves(
    tree: MVBT,
    key_low: Key = MIN_KEY,
    key_high: Key = MAX_KEY,
    t1: int = MIN_TIME,
    t2: int = NOW,
) -> list[LeafNode]:
    """The leaves a range-interval scan would visit, in visit order.

    Concatenating :func:`scan_leaf_pieces` over this list is
    :func:`scan_pieces`.
    """
    if key_low >= key_high or t1 >= t2:
        return []
    border = min(t2 - 1, tree.current_time)
    if border < MIN_TIME:
        return []
    return list(_visit_leaves(tree, key_low, key_high, t1, t2, border))


def scan_leaf_pieces(
    leaf: LeafNode,
    key_low: Key,
    key_high: Key,
    t1: int,
    t2: int,
    out: list[tuple[Key, int, int, Any]] | None = None,
) -> list[tuple[Key, int, int, Any]]:
    """One leaf's ``(key, start, end, payload)`` pieces inside the region.

    The per-leaf unit of :func:`scan_pieces` (hot loop of every query).
    Dispatches to :meth:`~repro.mvbt.node.LeafNode.scan_pieces`:
    compressed leaves evaluate the predicates directly over the packed
    byte buffer (no per-entry objects for filtered entries), plain and
    hot decoded leaves filter entry objects — identical output either
    way.  Appends into ``out`` when given so a scan keeps a single result
    list.  Publishes no metrics; :func:`scan_pieces` aggregates.
    """
    if out is None:
        out = []
    return leaf.scan_pieces(key_low, key_high, t1, t2, out)


def scan_pieces(
    tree: MVBT,
    key_low: Key = MIN_KEY,
    key_high: Key = MAX_KEY,
    t1: int = MIN_TIME,
    t2: int = NOW,
) -> list[tuple[Key, int, int, Any]]:
    """The scan's fast path: ``(key, start, end, payload)`` integer pieces.

    Entry intervals are clamped to each node's lifetime inline; no Period
    objects are built (hot loop of every query).
    """
    leaves = query_leaves(tree, key_low, key_high, t1, t2)
    out: list[tuple[Key, int, int, Any]] = []
    for leaf in leaves:
        leaf.scan_pieces(key_low, key_high, t1, t2, out)
    if _metrics.ENABLED:
        examined = sum(leaf.count for leaf in leaves)
        _SCANS.inc()
        _LEAVES.inc(len(leaves))
        _EXAMINED.inc(examined)
        _EMITTED.inc(len(out))
        _PRUNED.inc(examined - len(out))
    return out


def range_interval_scan(
    tree: MVBT,
    key_low: Key = MIN_KEY,
    key_high: Key = MAX_KEY,
    t1: int = MIN_TIME,
    t2: int = NOW,
) -> Iterator[tuple[Key, Period, Any]]:
    """Yield ``(key, effective_period, payload)`` pieces for every entry
    whose key falls in ``[key_low, key_high)`` and whose lifetime intersects
    ``[t1, t2)``."""
    for key, lo, hi, payload in scan_pieces(tree, key_low, key_high, t1, t2):
        yield key, Period(lo, hi), payload


def _visit_leaves(
    tree: MVBT,
    key_low: Key,
    key_high: Key,
    t1: int,
    t2: int,
    border: int,
) -> Iterator[LeafNode]:
    """Leaves intersecting the query region, border-first then backward."""
    queue: deque[Node] = deque()
    visited: set[int] = set()

    def push(node: Node) -> None:
        if id(node) not in visited:
            visited.add(id(node))
            queue.append(node)

    # Step 1: leaves crossing the right border of the region.
    root = tree.root_for(border)
    frontier: list[Node] = [root] if root.lifetime_overlaps(t1, t2) else []
    while frontier:
        node = frontier.pop()
        if node.is_leaf:
            push(node)
            continue
        frontier.extend(
            node.children_overlapping(key_low, key_high, border)
        )

    # Steps 2-3: follow backward links into the past.
    while queue:
        node = queue.popleft()
        # Same-chronon restructuring churn creates nodes with empty
        # lifetimes ([t, t)); every entry clamps to nothing, so skip the
        # scan — but still follow their links to reach earlier lineage.
        if node.is_leaf and node.start < node.death:
            yield node
        for pred in node.predecessors:
            # Key-region bounds survive splits, so predecessors entirely
            # outside the key range can be pruned on both sides; lifetimes
            # outside the time range are pruned exactly.
            if pred.key_low >= key_high:
                continue
            if pred.key_high is not None and pred.key_high <= key_low:
                continue
            if not pred.lifetime_overlaps(t1, t2):
                continue
            push(pred)


def collect_validity(
    tree: MVBT,
    key_low: Key = MIN_KEY,
    key_high: Key = MAX_KEY,
    t1: int = MIN_TIME,
    t2: int = NOW,
) -> dict[Key, PeriodSet]:
    """Coalesced validity periods per key inside the query region.

    This is the result shape of single-pattern matching: each matching key is
    mapped to the coalesced set of its (unclipped) validity periods that
    intersect the time range.
    """
    pieces: dict[Key, list[tuple[int, int]]] = defaultdict(list)
    for key, lo, hi, _ in scan_pieces(tree, key_low, key_high, t1, t2):
        pieces[key].append((lo, hi))
    return {
        key: PeriodSet.from_intervals(parts) for key, parts in pieces.items()
    }
