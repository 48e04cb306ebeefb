"""Distributed query evaluation: every query is a join of subject stars.

Shards partition on subject, so the unit a shard answers alone is the
*subject star*: the quad patterns that share one subject term.  Every
binding of a star lives on the shards
:meth:`~repro.cluster.planner.ShardPlanner.star_shards` names for it (a
constant subject's owner, or every shard for a variable subject), and
each of them evaluates it with its full engine, plan cache and optimizer
included.  A star costs one RPC per shard; the coordinator unions the
answers.

* A query whose quad patterns, base, UNION and OPTIONAL alike, form one
  star goes to the star's shards as written.  A 1-shard cluster routes
  every query so, and every fig9 query is one star: point lookups and
  per-entity histories never pay a join at the coordinator.
* Any other query, such as a chain through an object, runs the engine's
  group algebra (:func:`repro.engine.executor.evaluate_group`) here, with
  :func:`join_stars` as its base join: each base is split into its stars,
  each star is rendered as one SPARQLT sub-query, all are asked at once,
  and the answers join with :func:`~repro.engine.executor.join_in_order`
  in :func:`star_order`.  A filter conjunct rides along with a star when
  it sees final values there (:func:`repro.engine.plan.conjunct_ready`),
  so time windows still push into the shard-side scans, and the
  coordinator runs only the conjuncts none carried.  Shards return
  *decoded* bindings — per-shard dictionaries assign different ids to the
  same term, so string equality is the only join key that means anything
  across shards.  The engine's streaming operators treat ``int`` values
  as the only encoded kind, so string-valued rows flow through them
  untouched and no dictionary is consulted.

Results are sorted once, canonically, before they leave the coordinator
(:func:`canonical_sort`): per-shard dictionary ids make engine row order a
topology artifact, and byte-identical results across 1-, 2- and 4-shard
deployments are part of the contract (the golden-file test pins it).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

from ..engine.executor import evaluate_group, join_in_order
from ..engine.operators import Row, apply_filters, project
from ..engine.plan import compile_group, conjunct_ready, time_variables
from ..model.time import encode_value
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sparqlt.ast import Expr, GroupGraphPattern, QuadPattern, Query
from .planner import ShardPlanner
from .protocol import encode_query

_SINGLE_SHARD = _metrics.counter("cluster.coordinator.single_shard")
_STARS = _metrics.counter("cluster.coordinator.star_queries")
_STAR_REQUESTS = _metrics.counter("cluster.coordinator.star_requests")

#: The coordinator's fan-out: asks each (query text, shard ids) request of
#: every one of its shards, concurrently, and returns per request the
#: shards' decoded rows concatenated, in request order.
Gather = Callable[[list[tuple[str, list[int]]]], list[list[Row]]]


def answer(query: Query, text: str, planner: ShardPlanner, gather: Gather,
           horizon: int) -> list[Row]:
    """``query``'s projected rows (``text`` is its SPARQLT), canonically
    sorted: forwarded whole when it is one star, joined from its stars
    otherwise."""
    shard_ids = planner.star_shards(query.group)
    if shard_ids is None:
        rows = project(evaluate_group(
            compile_group(query.group, lambda *base: base),
            lambda base: join_stars(*base, planner, gather, horizon),
            None, horizon,
        ), query.select, None)
    else:
        if _metrics.ENABLED:
            (_SINGLE_SHARD if len(shard_ids) == 1 else _STARS).inc()
        rows = gather([(text, shard_ids)])[0]
        if len(shard_ids) > 1:
            # A row several shards return (the projection dropped the
            # subject) is kept once, as the engine's projection keeps it.
            rows = project(rows, query.select, None)
    return canonical_sort(rows, query.select)


def star_order(stars: list[list[QuadPattern]]) -> list[int]:
    """Join order for stars (no optimizer statistics here).

    Mirrors :func:`repro.engine.executor.default_order`'s shape: start
    from the star with the most constant positions, then keep appending
    the most bound star *connected* to what is already joined, avoiding
    cross products when the query graph allows it.  Ties break on star
    position, keeping the order deterministic.
    """

    def selectivity(index: int) -> tuple[int, int]:
        return (-sum(len(p.constant_positions()) for p in stars[index]),
                index)

    remaining = set(range(len(stars)))
    order: list[int] = []
    bound: set[str] = set()
    while remaining:
        connected = [i for i in remaining
                     if _variables(stars[i]) & bound]
        best = min(connected or remaining, key=selectivity)
        order.append(best)
        remaining.discard(best)
        bound |= _variables(stars[best])
    return order


def join_stars(
    patterns: list[QuadPattern],
    conjuncts: list[Expr],
    planner: ShardPlanner,
    gather: Gather,
    horizon: int,
) -> list[Row]:
    """The coordinator's base join: one sub-query per subject star, every
    one asked at once, the answers joined in :func:`star_order`.

    A conjunct rides along with a star's sub-query when it sees final
    values on that star alone, the other stars' time variables still to
    be intersected, so shards prune before shipping.  Running it again
    would change nothing: the coordinator applies only the conjuncts no
    star carried, once, over the joined rows.
    """
    by_subject: dict[object, list[QuadPattern]] = {}
    for pattern in patterns:
        by_subject.setdefault(pattern.subject, []).append(pattern)
    stars = list(by_subject.values())
    requests: list[tuple[str, list[int]]] = []
    names: list[set[str]] = []
    carried: list[Expr] = []
    for index in star_order(stars):
        star = stars[index]
        variables = _variables(star)
        rebound = time_variables(
            p for other in stars if other is not star for p in other)
        ready = [c for c in conjuncts
                 if conjunct_ready(c, variables, rebound)]
        carried += ready
        # SELECT names a variable; a star without any (facts at dates)
        # selects an unbound one, so a row comes back when all held.
        requests.append((
            encode_query(Query(select=sorted(variables) or ["held"],
                               patterns=star, filters=ready)),
            planner.star_shards(GroupGraphPattern(patterns=star)),
        ))
        names.append(variables)
    if _metrics.ENABLED:
        _STAR_REQUESTS.inc(sum(len(shard_ids) for _, shard_ids in requests))
    with _trace.span("cluster.stars", stars=len(requests)):
        answers = gather(requests)
    rows = join_in_order(
        (star_names, found if star_names else [{} for _ in found])
        for star_names, found in zip(names, answers)
    )
    rest = [c for c in conjuncts if c not in carried]
    return list(apply_filters(rows, rest, None, horizon)) if rest else rows


def _variables(star: list[QuadPattern]) -> set[str]:
    return set().union(*(pattern.variables() for pattern in star))


def canonical_sort(rows: list[Row], variables: list[str]) -> list[Row]:
    """Topology-independent total order on projected rows.

    Rows sort as the JSON text of their projected values does (strings,
    nulls for unbound OPTIONAL slots, interval lists for temporal
    bindings) — the encoding the HTTP layer emits, so equal serialized
    results sort identically no matter which shard produced which row.
    A row's key is the tuple of its values' JSON texts: no JSON value's
    text is a prefix of another's, so the tuples order as the texts of
    the whole rows would.  A string is quoted by the C escaper; any other
    value is encoded once per distinct value.
    """
    texts: dict[object, str] = {None: "null"}

    def text(value: object) -> str:
        if value.__class__ is str:
            return _quote(value)
        found = texts.get(value)
        if found is None:
            found = texts[value] = json.dumps(encode_value(value))
        return found

    return sorted(
        rows, key=lambda row: tuple([text(row.get(n)) for n in variables]))
