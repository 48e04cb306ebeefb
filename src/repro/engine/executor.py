"""Plan execution: ordered scans, joins, filters, projection (Section 5).

When a :class:`~repro.obs.profile.ProfileNode` is passed to
:func:`execute`, every operator (scan, hash join, synchronized join, cross
product, filter) is timed and its row counts recorded into a left-deep
profile tree; index-level scan counters (MVBT leaves visited, entries
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
from ..sparqlt.ast import Expr, expr_variables
from .operators import (
    Row,
    apply_filters,
    hash_join_rows,
    index_scan,
    nested_loop_product,
    project,
    synchronized_join_applicable,
    synchronized_join_rows,
)
from .plan import PlanGraph

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


def _scan_detail(plan) -> str:
    return f"{plan.index_order.upper()} {plan.pattern}"


def execute(
    graph: PlanGraph,
    indexes: IndexSet,
    dictionary: Dictionary,
    horizon: int,
    order: list[int] | None = None,
    profile: ProfileNode | None = None,
    step_estimates: dict[frozenset, float] | None = None,
) -> list[Row]:
    """Run the plan and return projected result rows.

    Filters are pushed to the earliest point where their variables are all
    bound; the remaining conjuncts run before projection.

    ``profile`` (optional) receives the executed operator tree as a child
    node; ``step_estimates`` maps frozensets of joined pattern indices to
    the optimizer's estimated output cardinality so join nodes carry
    estimates too (see :func:`repro.optimizer.cost.order_prefix_estimates`).
    """
    if order is None:
        order = default_order(graph)
    profiling = profile is not None
    # Whether this execution runs inside a live trace: serial scans are
    # materialized under a span only then, so the default path keeps its
    # lazy scan->join pipelining.
    tracing = _trace.active()
    est_map = step_estimates or {}
    joined: set[int] = set()
    current: ProfileNode | None = None
    perf = time.perf_counter

    def finish(result_rows: list[Row]) -> list[Row]:
        if profiling and current is not None:
            profile.children.append(current)
        return result_rows

    def filter_step(rows, pending, bound):
        nonlocal current
        if not profiling:
            return _apply_ready_filters(rows, pending, bound, dictionary,
                                        horizon)
        ready = [c for c, vars_ in pending if vars_ <= bound]
        if not ready:
            return rows, pending
        start = perf()
        filtered, rest = _apply_ready_filters(
            rows, pending, bound, dictionary, horizon
        )
        current = ProfileNode(
            op="filter",
            detail=f"{len(ready)} conjunct(s)",
            actual_rows=len(filtered),
            time_ms=(perf() - start) * 1000.0,
            children=[current] if current is not None else [],
        )
        return filtered, rest

    conjuncts = graph.query.filter_conjuncts()
    pending = [(c, expr_variables(c)) for c in conjuncts]

    rows: list[Row] | None = None
    bound: set[str] = set()
    # Section 5.2.2: when the first join's inputs both sweep a large
    # portion of their index, use the cache-optimized synchronized join
    # instead of materializing a hash table.
    if len(order) >= 2:
        first, second = graph.patterns[order[0]], graph.patterns[order[1]]
        shared = first.pattern.variables() & second.pattern.variables()
        if synchronized_join_applicable(first, second, shared):
            start = perf() if profiling else 0.0
            with _trace.span("join.sync"):
                rows = list(
                    synchronized_join_rows(
                        indexes[first.index_order], first,
                        indexes[second.index_order], second,
                    )
                )
            joined = {order[0], order[1]}
            if profiling:
                current = ProfileNode(
                    op="sync join",
                    detail="on " + ", ".join(f"?{v}" for v in sorted(shared)),
                    est_rows=est_map.get(frozenset(joined)),
                    actual_rows=len(rows),
                    time_ms=(perf() - start) * 1000.0,
                    children=[
                        ProfileNode(op="scan", detail=_scan_detail(first),
                                    est_rows=first.estimate,
                                    extra={"fused": "sync"}),
                        ProfileNode(op="scan", detail=_scan_detail(second),
                                    est_rows=second.estimate,
                                    extra={"fused": "sync"}),
                    ],
                )
            bound = first.pattern.variables() | second.pattern.variables()
            order = order[2:]
            rows, pending = filter_step(rows, pending, bound)
            if not rows:
                return finish([])
    for index in order:
        plan = graph.patterns[index]
        scanned = index_scan(indexes[plan.index_order], plan)
        if tracing:
            # Materialize the lazy scan here so its span covers the
            # actual scan work rather than a closed generator.
            with _trace.span("scan.pattern", index=plan.index_order):
                scanned = list(scanned)
        pattern_vars = plan.pattern.variables()
        scan_node: ProfileNode | None = None
        if profiling:
            counters_before = _scan_counter_values()
            start = perf()
            scanned = list(scanned)
            scan_node = ProfileNode(
                op="scan",
                detail=_scan_detail(plan),
                est_rows=plan.estimate,
                actual_rows=len(scanned),
                time_ms=(perf() - start) * 1000.0,
                extra=_scan_counter_delta(counters_before),
            )
        if rows is None:
            rows = list(scanned)
            if profiling:
                current = scan_node
        else:
            shared = bound & pattern_vars
            start = perf() if profiling else 0.0
            if shared:
                with _trace.span("join.hash"):
                    rows = list(hash_join_rows(rows, scanned, shared))
                op = "hash join"
                detail = "on " + ", ".join(f"?{v}" for v in sorted(shared))
            else:
                with _trace.span("join.cross"):
                    rows = list(nested_loop_product(rows, scanned))
                op = "cross product"
                detail = ""
            if profiling:
                current = ProfileNode(
                    op=op,
                    detail=detail,
                    est_rows=est_map.get(frozenset(joined | {index})),
                    actual_rows=len(rows),
                    time_ms=(perf() - start) * 1000.0,
                    children=[current, scan_node],
                )
        joined.add(index)
        bound |= pattern_vars
        rows, pending = filter_step(rows, pending, bound)
        if not rows:
            return finish([])
    if pending:
        # Filters over unbound variables: evaluate anyway so the error
        # surfaces (unbound-variable filters are user mistakes).
        start = perf() if profiling else 0.0
        rows = list(
            apply_filters(rows, [c for c, _ in pending], dictionary, horizon)
        )
        if profiling:
            current = ProfileNode(
                op="filter",
                detail=f"{len(pending)} unbound conjunct(s)",
                actual_rows=len(rows),
                time_ms=(perf() - start) * 1000.0,
                children=[current] if current is not None else [],
            )
    return finish(rows)


def _apply_ready_filters(
    rows: list[Row],
    pending: list[tuple[Expr, set[str]]],
    bound: set[str],
    dictionary: Dictionary,
    horizon: int,
) -> tuple[list[Row], list[tuple[Expr, set[str]]]]:
    ready = [c for c, vars_ in pending if vars_ <= bound]
    if not ready:
        return rows, pending
    rest = [(c, v) for c, v in pending if not (v <= bound)]
    filtered = list(apply_filters(rows, ready, dictionary, horizon))
    return filtered, rest

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
