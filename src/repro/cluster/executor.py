"""Distributed query evaluation: subject stars whole on the shards,
everything else scattered pattern by pattern and joined at the top.

Three routes exist, chosen per query by
:meth:`~repro.cluster.planner.ShardPlanner.star_shards`:

* **One-shard star** — every quad pattern (base, UNION and OPTIONAL
  alike) shares one subject term, and one shard can hold its bindings:
  a constant subject's owner, or the one shard the predicate map leaves
  a variable subject (one shard holds everything, so a 1-shard cluster
  routes every query here).  The whole query text is forwarded there
  and evaluated by that shard's full engine (plan cache and optimizer
  included).  Point lookups and per-entity histories — the dominant
  serving shapes — never pay scatter/gather.
* **k-shard star** — a variable subject the predicate map allows on
  several shards.  Shards partition on subject, so each shard answers
  the whole query for its own subjects: the same text goes to each, one
  RPC per shard, and the coordinator concatenates the answers, keeps a
  projected row that several shards return once (``project``'s set
  semantics) and sorts them.  Every fig9 query is a subject star.
* **Scatter/gather** — any other query, such as a chain through an
  object: the engine's group algebra
  (:func:`repro.engine.executor.evaluate_group`) runs at the coordinator
  with :func:`scatter_join` as its base join: each base pattern becomes a
  single-pattern sub-query, rendered as SPARQLT text, fanned out to the
  shards :meth:`~repro.cluster.planner.ShardPlanner.shards_for_pattern`
  names.
  A filter conjunct rides along with a sub-query when it sees final
  values on that one pattern (:func:`repro.engine.plan.conjunct_ready`),
  so time windows still push into the shard-side scans, and the
  coordinator runs only the conjuncts none carried.  Shards return
  *decoded* bindings — per-shard dictionaries assign different ids to the
  same term, so string equality is the only join key that means anything
  across shards.  The engine's streaming operators treat ``int`` values
  as the only encoded kind, so string-valued rows flow through them
  untouched and no dictionary is consulted.

Both star routes are one path in
:meth:`~repro.cluster.coordinator.ClusterStore.query`; this module holds
the scatter path and the canonical order all three share.

Results are canonically sorted on the projected bindings before they
leave the coordinator — per-shard dictionary ids make engine row order a
topology artifact, and byte-identical results across 1-, 2- and 4-shard
deployments are part of the contract (the golden-file test pins it).
"""

from __future__ import annotations

import json
from typing import Callable

from ..engine.executor import evaluate_group, join_in_order
from ..engine.operators import Row, apply_filters, project
from ..engine.plan import compile_group, conjunct_ready, time_variables
from ..model.time import encode_value
from ..obs import trace as _trace
from ..sparqlt.ast import Compare, Expr, Literal, QuadPattern, Query, Var
from .planner import ShardPlanner
from .protocol import encode_query

#: The coordinator-provided fan-out hook: evaluates each (sub-query text,
#: shard ids) request — concurrently where it can — and returns the
#: unioned, decoded rows per request, in request order.
ScatterMany = Callable[[list[tuple[str, list[int]]]], list[list[Row]]]


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


def scatter_join(
    patterns: list[QuadPattern],
    conjuncts: list[Expr],
    planner: ShardPlanner,
    scatter_many: ScatterMany,
    horizon: int,
) -> list[Row]:
    """The coordinator's base join: scatter one sub-query per pattern and
    join the gathered rows in :func:`scatter_order`.

    A conjunct rides along with a pattern's sub-query when it sees final
    values on that pattern alone, so shards prune before shipping.  It saw
    final values there, so running it again would change nothing: the
    coordinator applies only the conjuncts no sub-query carried, once,
    over the joined rows.
    """
    order = scatter_order(patterns)
    requests: list[tuple[str, list[int]]] = []
    carried: list = []
    for index in order:
        pattern = patterns[index]
        rebound = time_variables(
            patterns[:index] + patterns[index + 1:]
        )
        ready = [c for c in conjuncts
                 if conjunct_ready(c, pattern.variables(), rebound)]
        carried += ready
        requests.append((
            _sub_query(pattern, ready),
            planner.shards_for_pattern(pattern),
        ))
    with _trace.span("cluster.scatter", requests=len(requests)):
        partials = scatter_many(requests)
    rows = join_in_order(
        (names, partial if names else [{} for _ in partial])
        for names, partial in zip(
            (patterns[index].variables() for index in order), partials)
    )
    rest = [c for c in conjuncts if c not in carried]
    return list(apply_filters(rows, rest, None, horizon)) if rest else rows


def _sub_query(pattern: QuadPattern, conjuncts: list[Expr]) -> str:
    """One scattered pattern and its ride-along conjuncts as query text.

    SELECT names at least one variable, so a pattern with none (a fact
    at a date) asks for its date as a restriction of a time variable
    instead; only whether rows come back is used.
    """
    select = sorted(pattern.variables())
    if not select:
        select = ["t"]
        conjuncts = [*conjuncts, Compare(
            "=", Var("t"), Literal(pattern.time.chronon, "date"))]
        pattern = QuadPattern(pattern.subject, pattern.predicate,
                              pattern.object, Var("t"))
    return encode_query(
        Query(select=select, patterns=[pattern], filters=conjuncts))


def distributed_query(
    query: Query,
    planner: ShardPlanner,
    scatter_many: ScatterMany,
    horizon: int,
) -> list[Row]:
    """Full scatter-path evaluation: group algebra, project, canonical
    sort."""
    with _trace.span("cluster.distributed"):
        rows = evaluate_group(
            compile_group(query.group, lambda *base: base),
            lambda base: scatter_join(*base, planner, scatter_many, horizon),
            None, horizon,
        )
        with _trace.span("cluster.gather", rows=len(rows)):
            return canonical_sort(
                project(rows, query.select, None), query.select
            )


def canonical_sort(rows: list[Row], variables: list[str]) -> list[Row]:
    """Topology-independent total order on projected rows.

    Keyed on the JSON encoding of each projected value (strings, nulls
    for unbound OPTIONAL slots, interval lists for temporal bindings) —
    the encoding the HTTP layer emits, so equal serialized results
    sort identically no matter which shard produced which row.
    """

    def key(row: Row) -> str:
        return json.dumps(
            [encode_value(row.get(name)) for name in variables]
        )

    return sorted(rows, key=key)
