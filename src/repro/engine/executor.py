"""Plan execution (Section 5) and the SPARQLT group algebra.

:func:`execute` runs a :class:`~repro.engine.plan.CompiledPlan`; a caller
holding a plan graph and an order has it compiled at entry, so there is
one executor loop.  When a :class:`~repro.obs.profile.ProfileNode` is
passed, every operator (scan, hash join, synchronized join, cross product,
filter) is timed and its row counts recorded into a left-deep profile
tree; index-level scan counters (MVBT leaves visited, entries
examined/pruned, compressed pages decoded) are attached to each scan node.
Profiling is opt-in per query and adds no per-row work to the default
path.

:func:`evaluate_group` is the one SPARQLT group algebra: it walks a
:class:`~repro.engine.plan.GroupPlan`, and the engine, the cluster
coordinator and the baselines each supply only the join of a group's base
patterns (:data:`JoinBase`), which applies the base's early conjuncts
once.  The algebra runs only the late ones.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from ..model.dictionary import Dictionary
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.profile import ProfileNode
from .operators import (
    Row,
    apply_filters,
    hash_join_rows,
    index_scan,
    left_outer_join_rows,
    nested_loop_product,
    synchronized_join_rows,
)
from .plan import CompiledPlan, GroupPlan, PlanGraph, Step, compile_plan

#: Index name -> MVBT mapping held by the engine.
IndexSet = dict

#: An evaluator's join of one :attr:`~repro.engine.plan.GroupPlan.base`.
#: It applies the base's early conjuncts exactly once, wherever
#: :func:`~repro.engine.plan.conjunct_ready` allows.
JoinBase = Callable[[object], list[Row]]

#: Scan counters surfaced per profile node, as (label, counter) pairs.
_SCAN_COUNTERS = (
    ("leaves", _metrics.counter("mvbt.scan.leaves_visited")),
    ("entries", _metrics.counter("mvbt.scan.entries_examined")),
    ("pruned", _metrics.counter("mvbt.scan.entries_pruned")),
    ("decoded", _metrics.counter("mvbt.compression.leaves_decoded")),
)


def _scan_counter_values() -> list[int]:
    return [counter.value for _, counter in _SCAN_COUNTERS]


def _scan_counter_delta(before: list[int]) -> dict:
    out: dict[str, int] = {}
    for (label, counter), prev in zip(_SCAN_COUNTERS, before):
        delta = counter.value - prev
        if delta:
            out[label] = delta
    return out


def default_order(graph: PlanGraph) -> list[int]:
    """Heuristic join order used when the optimizer is disabled.

    Starts from the most selective pattern (most constant positions, then
    narrowest time window) and repeatedly appends the most selective pattern
    connected to the group, avoiding cross products when possible.
    """

    def selectivity(index: int) -> tuple:
        plan = graph.patterns[index]
        return (-len(plan.pattern_type), plan.time_range.length())

    remaining = set(range(len(graph.patterns)))
    order: list[int] = []
    while remaining:
        connected = [i for i in remaining if graph.connected(set(order), i)]
        pool = connected or sorted(remaining)
        best = min(pool, key=selectivity)
        order.append(best)
        remaining.discard(best)
    return order


def _scan_detail(step: Step, dictionary: Dictionary) -> str:
    return f"{step.index_order.upper()} {step.pattern_text(dictionary)}"


def _on(names: tuple[str, ...]) -> str:
    return "on " + ", ".join(f"?{v}" for v in names)


def execute(
    plan: CompiledPlan | PlanGraph,
    indexes: IndexSet,
    dictionary: Dictionary,
    horizon: int,
    order: list[int] | None = None,
    profile: ProfileNode | None = None,
) -> list[Row]:
    """Run the plan and return result rows (unprojected).

    A :class:`PlanGraph` is compiled first, in ``order`` (default: the
    heuristic :func:`default_order`); a compiled plan carries its own.
    Each filter conjunct runs after the step its plan placed it on: the
    first step after which it sees final values
    (:func:`~repro.engine.plan.conjunct_ready`).  A plan of no steps
    matches nothing.

    ``profile`` (optional) receives the executed operator tree as a child
    node, with the plan's scan and join estimates on it.
    """
    if isinstance(plan, PlanGraph):
        plan = compile_plan(
            plan, order if order is not None else default_order(plan)
        )
    profiling = profile is not None
    # Whether this execution runs inside a live trace: serial scans are
    # materialized under a span only then, so the default path keeps its
    # lazy scan->join pipelining.
    tracing = _trace.active()
    current: ProfileNode | None = None
    perf = time.perf_counter

    def finish(result_rows: list[Row]) -> list[Row]:
        if profiling and current is not None:
            profile.children.append(current)
        return result_rows

    def filter_step(rows, conjuncts, label: str):
        nonlocal current
        if not profiling:
            return list(apply_filters(rows, conjuncts, dictionary, horizon))
        start = perf()
        filtered = list(apply_filters(rows, conjuncts, dictionary, horizon))
        current = ProfileNode(
            op="filter",
            detail=f"{len(conjuncts)} {label}",
            actual_rows=len(filtered),
            time_ms=(perf() - start) * 1000.0,
            children=[current] if current is not None else [],
        )
        return filtered

    steps = plan.steps
    rows: list[Row] | None = None
    if plan.sync:
        # Section 5.2.2: both inputs of the first join sweep a large
        # portion of their index, so the cache-optimized synchronized
        # join replaces a materialized hash table.
        first, second = steps[0], steps[1]
        start = perf() if profiling else 0.0
        with _trace.span("join.sync"):
            rows = list(
                synchronized_join_rows(
                    indexes[first.index_order], first,
                    indexes[second.index_order], second,
                )
            )
        if profiling:
            current = ProfileNode(
                op="sync join",
                detail=_on(second.join_vars),
                est_rows=second.join_estimate,
                actual_rows=len(rows),
                time_ms=(perf() - start) * 1000.0,
                children=[
                    ProfileNode(op="scan",
                                detail=_scan_detail(step, dictionary),
                                est_rows=step.estimate,
                                extra={"fused": "sync"})
                    for step in (first, second)
                ],
            )
        if second.filters:
            rows = filter_step(rows, second.filters, "conjunct(s)")
        if not rows:
            return finish([])
        steps = steps[2:]
    for step in steps:
        scanned = index_scan(indexes[step.index_order], step)
        if tracing:
            # Materialize the lazy scan here so its span covers the
            # actual scan work rather than a closed generator.
            with _trace.span("scan.pattern", index=step.index_order):
                scanned = list(scanned)
        scan_node: ProfileNode | None = None
        if profiling:
            counters_before = _scan_counter_values()
            start = perf()
            scanned = list(scanned)
            scan_node = ProfileNode(
                op="scan",
                detail=_scan_detail(step, dictionary),
                est_rows=step.estimate,
                actual_rows=len(scanned),
                time_ms=(perf() - start) * 1000.0,
                extra=_scan_counter_delta(counters_before),
            )
        if rows is None:
            rows = list(scanned)
            if profiling:
                current = scan_node
        else:
            shared = step.join_vars
            start = perf() if profiling else 0.0
            if shared:
                with _trace.span("join.hash"):
                    rows = list(hash_join_rows(rows, scanned, shared))
                op, detail = "hash join", _on(shared)
            else:
                with _trace.span("join.cross"):
                    rows = list(nested_loop_product(rows, scanned))
                op, detail = "cross product", ""
            if profiling:
                current = ProfileNode(
                    op=op,
                    detail=detail,
                    est_rows=step.join_estimate,
                    actual_rows=len(rows),
                    time_ms=(perf() - start) * 1000.0,
                    children=[current, scan_node],
                )
        if step.filters:
            rows = filter_step(rows, step.filters, "conjunct(s)")
        if not rows:
            return finish([])
    return finish(rows or [])


def join_in_order(
    inputs: Iterable[tuple[set[str], Iterable[Row]]],
) -> list[Row]:
    """Left-deep inner join of ``(variables, rows)`` inputs, in order.

    Each input hash-joins on the variables it shares with the inputs
    before it (temporal ones intersect), or is a cross product when it
    shares none.  An empty result stops the join before the next input
    is drawn, so a lazy ``inputs`` skips the work behind it.
    """
    rows: list[Row] | None = None
    bound: set[str] = set()
    for names, scanned in inputs:
        rows = (list(scanned) if rows is None
                else _join_rows(rows, scanned, bound & names))
        if not rows:
            return []
        bound |= names
    return rows or []


def _join_rows(rows: list[Row], other: Iterable[Row],
               shared: set[str] | frozenset[str]) -> list[Row]:
    """:func:`join_in_order`'s join of one input."""
    return list(
        hash_join_rows(rows, other, shared) if shared
        else nested_loop_product(rows, other)
    )


def evaluate_group(
    plan: GroupPlan,
    join_base: JoinBase,
    dictionary: Dictionary | None,
    horizon: int,
) -> list[Row]:
    """Evaluate a compiled group (:func:`~repro.engine.plan.compile_group`).

    ``join_base`` joins the base, its early conjuncts applied.  Then each
    UNION (its branches' rows concatenated) joins in, each OPTIONAL
    left-outer-joins, and the late conjuncts run over the combined rows.
    Each UNION branch and OPTIONAL is a group of its own, filtered on its
    own rows.

    ``dictionary`` decodes term ids for the filters; rows holding decoded
    strings (the cluster coordinator's) need none.
    """
    rows = None if plan.base is None else join_base(plan.base)
    for shared, branches in plan.unions:
        if rows is not None and not rows:
            return []  # nothing for the UNION to join
        alternatives = [
            row for branch in branches
            for row in evaluate_group(branch, join_base, dictionary, horizon)
        ]
        rows = (alternatives if rows is None
                else _join_rows(rows, alternatives, shared))
    if not rows:
        return []
    for shared, optional in plan.optionals:
        extension = evaluate_group(optional, join_base, dictionary, horizon)
        rows = list(left_outer_join_rows(rows, extension, shared))
    if plan.late:
        rows = list(apply_filters(rows, plan.late, dictionary, horizon))
    return rows
