"""Bottom-up dynamic-programming join enumeration (Section 6.1).

Following Moerkotte & Neumann's DP over connected subgraphs, the optimizer
builds optimal plans for growing pattern subsets: a plan for a subset is the
cheapest join of two disjoint, connected, mutually-connected sub-subsets.
Cross products are avoided whenever the plan graph is connected; for
disconnected queries the components are combined afterwards, cheapest first.

The result is linearized to the pattern order the executor folds with hash
joins; because our joins pipeline the probe side, a left-deep fold of the DP
order preserves the intended intermediate sizes.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Sequence

from ..engine.plan import PlanGraph
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .cost import SubPlan, join_cardinality, join_step_cost, pattern_estimates
from ..model.graph import raw_size
from ..mvsbt.histogram import TemporalHistogram
from .statistics import Statistics

_REBUILDS = _metrics.counter("optimizer.rebuilds")
_REBUILD_HIST = _metrics.histogram("optimizer.rebuild_ms")


class Optimizer:
    """The RDF-TX query optimizer.

    Attach one to an engine (``RDFTX(optimizer=Optimizer())``) or pass it to
    :meth:`RDFTX.from_graph`; the engine calls :meth:`rebuild` at load time
    and :meth:`choose_order` for every multi-pattern query, and each write
    it applies updates :attr:`statistics` in place
    (:meth:`TemporalHistogram.insert
    <repro.mvsbt.histogram.TemporalHistogram.insert>`).
    """

    def __init__(self, cm: int = 8, lm: int = 8,
                 budget_fraction: float = 0.10) -> None:
        self.cm = cm
        self.lm = lm
        self.budget_fraction = budget_fraction
        self.statistics: Statistics | None = None

    def rebuild(self, graph) -> None:
        """(Re)build the temporal histogram from a graph (the load path)."""
        self.rebuild_rows(graph.dictionary, graph.encoded_rows())

    def rebuild_rows(self, dictionary, rows: Sequence[tuple]) -> None:
        """(Re)build the temporal histogram from encoded ``(sid, pid, oid,
        start, end)`` rows over ``dictionary`` — a graph's, or the history
        an engine reads back off its indices (an explicit
        ``RDFTX.refresh_statistics``).

        A rebuild starts the budget search from the thresholds the previous
        statistics hold; a first build (or one after an empty history, which
        fits any budget) starts from the middle of the ladder."""
        started = time.perf_counter()
        with _trace.span("optimizer.rebuild", triples=len(rows)) as span:
            start = None
            if self.statistics is not None:
                previous = self.statistics.histogram
                if previous.total_triples:
                    start = (previous.cm, previous.lm)
            histogram = TemporalHistogram(
                cm=self.cm, lm=self.lm,
                budget_fraction=self.budget_fraction,
            )
            histogram.build_rows(rows, raw_size(dictionary, rows), start)
            self.statistics = Statistics(histogram, dictionary)
            span.annotate(candidates_built=histogram.candidates_built,
                          cm=histogram.cm)
        if _metrics.ENABLED:
            _REBUILDS.inc()
            _REBUILD_HIST.observe((time.perf_counter() - started) * 1000.0)

    def choose_order(self, graph: PlanGraph) -> list[int]:
        """The cost-optimal join order for a plan graph."""
        if self.statistics is None:
            from ..engine.executor import default_order

            return default_order(graph)
        self.statistics.clear_cache()
        order, _ = optimize(graph, self.statistics)
        return order


def optimize(
    graph: PlanGraph, stats: Statistics
) -> tuple[list[int], float]:
    """DP join ordering; returns (pattern order, estimated plan cost)."""
    n = len(graph.patterns)
    estimates = pattern_estimates(graph, stats)
    if n == 1:
        return [0], estimates[0]

    neighbor_masks = [0] * n
    for i, j in graph.edges:
        neighbor_masks[i] |= 1 << j
        neighbor_masks[j] |= 1 << i

    best: dict[int, tuple[SubPlan, list[int]]] = {}
    for i in range(n):
        sub = SubPlan(frozenset([i]), max(estimates[i], 0.01), estimates[i])
        best[1 << i] = (sub, [i])

    for size in range(2, n + 1):
        for subset in _connected_subsets(n, size, neighbor_masks):
            entry = None
            for left_mask in _proper_submasks(subset):
                right_mask = subset ^ left_mask
                if left_mask > right_mask:
                    continue  # symmetric
                left = best.get(left_mask)
                right = best.get(right_mask)
                if left is None or right is None:
                    continue
                if not _masks_connected(left_mask, right_mask, neighbor_masks):
                    continue
                candidate = _join(graph, stats, left, right)
                if entry is None or candidate[0].cost < entry[0].cost:
                    entry = candidate
            if entry is not None:
                best[subset] = entry

    full = (1 << n) - 1
    found = best.get(full)
    if found is None:
        # Disconnected plan graph: combine the components, cheapest first.
        found = _combine_components(graph, stats, best, n, neighbor_masks)
    sub, order = found
    return order, sub.cost


def enumerate_orders(graph: PlanGraph, stats: Statistics):
    """Yield (order, estimated cost) for every left-deep connected order.

    Used by the Figure 10(a) experiment, which compares the optimizer's
    choice against the true best and worst plans.
    """
    n = len(graph.patterns)
    pattern_estimates(graph, stats)

    def extend(order, remaining):
        if not remaining:
            yield list(order)
            return
        pool = [
            i for i in remaining if graph.connected(set(order), i)
        ] or sorted(remaining)
        for i in pool:
            order.append(i)
            yield from extend(order, remaining - {i})
            order.pop()

    yield from extend([], set(range(n)))


def estimate_order_cost(
    graph: PlanGraph, stats: Statistics, order: list[int]
) -> float:
    """Cost-model estimate of one left-deep order."""
    estimates = pattern_estimates(graph, stats)
    acc = SubPlan(frozenset([order[0]]), max(estimates[order[0]], 0.01),
                  estimates[order[0]])
    total = acc.cost
    for index in order[1:]:
        nxt = SubPlan(frozenset([index]), max(estimates[index], 0.01),
                      estimates[index])
        acc, _ = _join(graph, stats, (acc, []), (nxt, []))
        total = acc.cost
    return total


def _join(graph, stats, left_entry, right_entry):
    left, left_order = left_entry
    right, right_order = right_entry
    output = join_cardinality(graph, stats, left, right)
    cost = (
        left.cost
        + right.cost
        + join_step_cost(left, right, output)
    )
    sub = SubPlan(left.patterns | right.patterns, max(output, 0.01), cost)
    # Linearize: the smaller side first seeds the hash table.
    if left.cardinality <= right.cardinality:
        order = left_order + right_order
    else:
        order = right_order + left_order
    return sub, order


def _connected_subsets(n: int, size: int, neighbor_masks: list[int]):
    for combo in combinations(range(n), size):
        mask = 0
        for i in combo:
            mask |= 1 << i
        if _is_connected(mask, neighbor_masks):
            yield mask


def _is_connected(mask: int, neighbor_masks: list[int]) -> bool:
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        node = frontier & -frontier
        frontier ^= node
        index = node.bit_length() - 1
        grow = neighbor_masks[index] & mask & ~seen
        seen |= grow
        frontier |= grow
    return seen == mask


def _masks_connected(a: int, b: int, neighbor_masks: list[int]) -> bool:
    for i in range(len(neighbor_masks)):
        if a & (1 << i) and neighbor_masks[i] & b:
            return True
    return False


def _proper_submasks(mask: int):
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _combine_components(graph, stats, best, n, neighbor_masks):
    remaining = set(range(n))
    components = []
    while remaining:
        seed = remaining.pop()
        mask = 1 << seed
        grown = True
        while grown:
            grown = False
            for i in list(remaining):
                if neighbor_masks[i] & mask:
                    mask |= 1 << i
                    remaining.discard(i)
                    grown = True
        components.append(best[mask] if mask in best else best[1 << seed])
    components.sort(key=lambda entry: entry[0].cardinality)
    acc = components[0]
    for nxt in components[1:]:
        acc = _join(graph, stats, acc, nxt)
    return acc
