"""Distributed query evaluation: scatter pattern scans, join at the top.

Two plans exist, chosen per query:

* **Single-shard fast path** — every pattern's subject is a constant
  hashing to one shard, so the whole query text is forwarded there and
  evaluated by that shard's full engine (plan cache and optimizer
  included).  Point lookups and per-entity histories — the dominant
  serving shapes — never pay scatter/gather.
* **Scatter/gather** — each pattern becomes a single-pattern sub-query
  (filters fully covered by the pattern's variables ride along, so time
  windows still push into the shard-side scans) fanned out to the shards
  :meth:`~repro.cluster.planner.ShardPlanner.shards_for_pattern` names.
  Shards return *decoded* bindings — per-shard dictionaries assign
  different ids to the same term, so string equality is the only join key
  that means anything across shards.  The coordinator then reuses the
  engine's own streaming operators (:func:`hash_join_rows`,
  :func:`left_outer_join_rows`, :func:`nested_loop_product`,
  :func:`apply_filters`): they treat ``int`` values as the only encoded
  kind, so string-valued rows flow through them untouched and the
  dictionary argument is never consulted.

Results are canonically sorted on the projected bindings before they
leave the coordinator — per-shard dictionary ids make engine row order a
topology artifact, and byte-identical results across 1-, 2- and 4-shard
deployments are part of the contract (the golden-file test pins it).
"""

from __future__ import annotations

import json
from typing import Callable

from ..engine.operators import (
    Row,
    apply_filters,
    hash_join_rows,
    left_outer_join_rows,
    nested_loop_product,
    project,
)
from ..obs import trace as _trace
from ..sparqlt.ast import (
    GroupGraphPattern,
    QuadPattern,
    Query,
    expr_variables,
)
from ..sparqlt.errors import EvaluationError
from .planner import ShardPlanner
from .protocol import encode_value

#: The coordinator-provided fan-out hook: evaluates each (sub-query,
#: shard ids) request — concurrently where it can — and returns the
#: unioned, decoded rows per request, in request order.
ScatterMany = Callable[[list[tuple[Query, list[int]]]], list[list[Row]]]


def collect_patterns(group: GroupGraphPattern) -> list[QuadPattern]:
    """Every quad pattern in the group, including UNION/OPTIONAL bodies."""
    out = list(group.patterns)
    for branches in group.unions:
        for branch in branches:
            out.extend(collect_patterns(branch))
    for optional in group.optionals:
        out.extend(collect_patterns(optional))
    return out


def whole_query_shard(query: Query, planner: ShardPlanner) -> int | None:
    """The one shard that can run ``query`` in full, or ``None``."""
    return planner.single_shard_for(collect_patterns(query.group))


def scatter_order(patterns: list[QuadPattern]) -> list[int]:
    """Join order for scattered patterns (no optimizer statistics here).

    Mirrors :func:`repro.engine.executor.default_order`'s shape: start
    from the most constant-bound pattern, then keep appending the most
    bound pattern *connected* to what is already joined, avoiding cross
    products when the query graph allows it.  Ties break on pattern
    position, keeping the order — and therefore the scatter requests —
    deterministic.
    """

    def selectivity(index: int) -> tuple[int, int]:
        return (-len(patterns[index].constant_positions()), index)

    remaining = set(range(len(patterns)))
    order: list[int] = []
    bound: set[str] = set()
    while remaining:
        if order:
            connected = [
                i for i in remaining if patterns[i].variables() & bound
            ]
            pool = connected or sorted(remaining)
        else:
            pool = sorted(remaining)
        best = min(pool, key=selectivity)
        order.append(best)
        remaining.discard(best)
        bound |= patterns[best].variables()
    return order


def distributed_rows(
    group: GroupGraphPattern,
    planner: ShardPlanner,
    scatter_many: ScatterMany,
    horizon: int,
) -> list[Row]:
    """Evaluate a group against the shards; returns unprojected rows.

    The algebra mirrors :func:`repro.engine.executor.execute_group`: base
    patterns join first, UNION branches concatenate then join in, each
    OPTIONAL left-outer-joins, and the group's filters run last over the
    combined rows — tolerantly, because a filter over a variable an
    OPTIONAL left unbound rejects just that row (SPARQL error semantics).
    Filters fully covered by a single pattern additionally ride along
    with its sub-query, so shards prune before shipping.
    """
    conjuncts = group.filter_conjuncts()
    # Conjuncts whose variables are bound by exactly ONE base pattern
    # (and by no union/optional) are fully settled shard-side: every
    # joined row descends from rows that already passed — and were
    # already clipped by — them, so re-running them coordinator-side is
    # pure waste.  Multi-binder conjuncts must re-run at the top:
    # temporal variables join by *intersection*, so a shard-side pass on
    # one pattern's binding says nothing about the joined binding.
    binders: dict[str, int] = {}
    for pattern in group.patterns:
        for name in pattern.variables():
            binders[name] = binders.get(name, 0) + 1
    for branches in group.unions:
        for branch in branches:
            for name in branch.variables():
                binders[name] = binders.get(name, 0) + 1
    for optional in group.optionals:
        for name in optional.variables():
            binders[name] = binders.get(name, 0) + 1
    settled: set[int] = set()
    rows: list[Row] | None = None
    bound: set[str] = set()

    if group.patterns:
        order = scatter_order(group.patterns)
        requests: list[tuple[Query, list[int]]] = []
        for index in order:
            pattern = group.patterns[index]
            covered = [
                c for c in conjuncts
                if expr_variables(c) <= pattern.variables()
            ]
            settled.update(
                id(c) for c in covered
                if all(binders[name] == 1 for name in expr_variables(c))
            )
            sub = Query(
                select=sorted(pattern.variables()),
                patterns=[pattern],
                filters=covered,
            )
            requests.append((sub, planner.shards_for_pattern(pattern)))
        with _trace.span("cluster.scatter", requests=len(requests)):
            partials = scatter_many(requests)
        for index, partial in zip(order, partials):
            pattern_vars = group.patterns[index].variables()
            if rows is None:
                rows = partial
            else:
                shared = bound & pattern_vars
                if shared:
                    rows = list(hash_join_rows(rows, partial, shared))
                else:
                    rows = list(nested_loop_product(rows, partial))
            bound |= pattern_vars
            if not rows:
                return []

    for branches in group.unions:
        union_rows: list[Row] = []
        union_vars: set[str] = set()
        for branch in branches:
            union_rows.extend(
                distributed_rows(branch, planner, scatter_many, horizon)
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
        optional_rows = distributed_rows(
            optional, planner, scatter_many, horizon
        )
        shared = bound & optional.variables()
        rows = list(
            left_outer_join_rows(rows or [], optional_rows, shared)
        )
        bound |= optional.variables()

    if rows is None:
        return []
    residual = [c for c in conjuncts if id(c) not in settled]
    if residual:
        surviving = []
        for row in rows:
            try:
                kept = list(apply_filters([row], residual, None, horizon))
            except EvaluationError:
                continue
            surviving.extend(kept)
        rows = surviving
    return rows


def distributed_query(
    query: Query,
    planner: ShardPlanner,
    scatter_many: ScatterMany,
    horizon: int,
) -> list[Row]:
    """Full scatter-path evaluation: group algebra, project, canonical
    sort."""
    with _trace.span("cluster.distributed"):
        rows = distributed_rows(query.group, planner, scatter_many, horizon)
        with _trace.span("cluster.gather", rows=len(rows)):
            return canonical_sort(
                project(rows, query.select, None), query.select
            )


def canonical_sort(rows: list[Row], variables: list[str]) -> list[Row]:
    """Topology-independent total order on projected rows.

    Keyed on the JSON encoding of each projected value (strings, nulls
    for unbound OPTIONAL slots, interval lists for temporal bindings) —
    the same encoding the HTTP layer emits, so equal serialized results
    sort identically no matter which shard produced which row.
    """

    def key(row: Row) -> str:
        return json.dumps(
            [encode_value(row.get(name)) for name in variables]
        )

    return sorted(rows, key=key)
