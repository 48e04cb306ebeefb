"""Plan execution: ordered scans, joins, filters, projection (Section 5).

:func:`execute` runs a :class:`~repro.engine.plan.CompiledPlan`; a caller
holding a plan graph and an order has it compiled at entry, so there is
one executor loop.  When a :class:`~repro.obs.profile.ProfileNode` is
passed, every operator (scan, hash join, synchronized join, cross product,
filter) is timed and its row counts recorded into a left-deep profile
tree; index-level scan counters (MVBT leaves visited, entries
examined/pruned, compressed pages decoded) are attached to each scan node.
Profiling is opt-in per query and adds no per-row work to the default
path.
"""

from __future__ import annotations

import time
from typing import Callable

from ..model.dictionary import Dictionary
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.profile import ProfileNode
from .operators import (
    Row,
    apply_filters,
    hash_join_rows,
    index_scan,
    nested_loop_product,
    synchronized_join_rows,
)
from .plan import CompiledPlan, PlanGraph, Step, compile_plan

#: Index name -> MVBT mapping held by the engine.
IndexSet = dict

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
    Filter conjuncts run right after the step that binds their last
    variable; conjuncts over variables no step binds run at the end.

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
    if plan.residual:
        # Filters over unbound variables: evaluate anyway so the error
        # surfaces (unbound-variable filters are user mistakes).
        rows = filter_step(rows, plan.residual, "unbound conjunct(s)")
    return finish(rows)


def execute_group(
    group,
    indexes: IndexSet,
    dictionary: Dictionary,
    horizon: int,
    choose_order: "Callable | None" = None,
    profile: ProfileNode | None = None,
) -> list[Row]:
    """Evaluate a :class:`~repro.sparqlt.ast.GroupGraphPattern`.

    Standard SPARQL algebra over the conjunctive core: the base patterns
    are planned and joined as usual, UNION blocks evaluate each branch and
    concatenate, OPTIONAL blocks left-outer-join, and the group's filters
    run over the combined rows (restrictions on temporal variables are also
    pushed into the base scans as windows).

    ``profile`` covers the conjunctive core only: the base-pattern plan is
    profiled as in :func:`execute`; UNION/OPTIONAL sub-groups are not
    decomposed.
    """
    from ..sparqlt.ast import Query as _Query
    from ..engine.patterns import UnknownTermError, translate_pattern
    from .operators import left_outer_join_rows

    conjuncts = group.filter_conjuncts()
    rows: list[Row] | None = None
    bound: set[str] = set()

    if group.patterns:
        stub = _Query(select=[], patterns=group.patterns, filters=[])
        try:
            plans = [
                translate_pattern(p, dictionary, conjuncts)
                for p in group.patterns
            ]
        except UnknownTermError:
            return []
        plan_graph = PlanGraph.build(stub, plans)
        order = (
            choose_order(plan_graph) if choose_order is not None
            else default_order(plan_graph)
        )
        rows = execute(plan_graph, indexes, dictionary, horizon, order,
                       profile=profile)
        bound = {
            name for pattern in group.patterns
            for name in pattern.variables()
        }
        if not rows:
            return []

    for branches in group.unions:
        union_rows: list[Row] = []
        union_vars: set[str] = set()
        for branch in branches:
            union_rows.extend(
                execute_group(branch, indexes, dictionary, horizon,
                              choose_order)
            )
            union_vars |= branch.variables()
        if rows is None:
            rows = union_rows
        else:
            shared = bound & union_vars
            if shared:
                rows = list(hash_join_rows(rows, union_rows, shared))
            else:
                rows = list(nested_loop_product(rows, union_rows))
        bound |= union_vars
        if not rows:
            return []

    for optional in group.optionals:
        optional_rows = execute_group(
            optional, indexes, dictionary, horizon, choose_order
        )
        shared = bound & optional.variables()
        rows = list(left_outer_join_rows(rows or [], optional_rows, shared))
        bound |= optional.variables()

    if rows is None:
        return []
    if conjuncts:
        # Filters referencing optional variables must tolerate unbound
        # rows: a filter that cannot be evaluated rejects the row, per
        # SPARQL's error semantics.
        from ..sparqlt.errors import EvaluationError

        surviving = []
        for row in rows:
            try:
                kept = list(
                    apply_filters([row], conjuncts, dictionary, horizon)
                )
            except EvaluationError:
                continue
            surviving.extend(kept)
        rows = surviving
    return rows
