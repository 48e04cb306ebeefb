"""Physical operators of the RDF-TX execution engine (Section 5.2).

Rows are plain dicts mapping variable names to values: dictionary ids (int)
for RDF terms and :class:`~repro.model.time.PeriodSet` for temporal
variables.  Term ids are decoded to strings only at projection time, keeping
joins cheap.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from ..model.dictionary import Dictionary
from ..model.time import NOW, Period, PeriodSet
from ..mvbt.scan import scan_pieces
from ..mvbt.tree import MVBT
from ..obs import metrics as _metrics
from ..sparqlt.ast import Compare, Expr, expr_variables
from ..sparqlt.functions import evaluate, restrict, restriction_target
from .patterns import PatternPlan

Row = dict

# Operator instrumentation: counts are accumulated in locals and published
# once per operator invocation, so the per-row paths never touch a lock
# (and REPRO_OBS=0 skips the publish entirely).
_SCANS = _metrics.counter("engine.index_scans")
_SCAN_ROWS = _metrics.counter("engine.index_scan_rows")
_HASH_JOINS = _metrics.counter("engine.hash_joins")
_HASH_JOIN_ROWS = _metrics.counter("engine.hash_join_rows")
_SYNC_JOINS = _metrics.counter("engine.sync_joins")
_SYNC_JOIN_ROWS = _metrics.counter("engine.sync_join_rows")
_FILTER_ROWS_IN = _metrics.counter("engine.filter_rows_in")
_FILTER_ROWS_OUT = _metrics.counter("engine.filter_rows_out")


def index_scan(tree: MVBT, plan: PatternPlan) -> Iterator[Row]:
    """Single graph pattern matching: one MVBT range-interval scan.

    Yields one row per matching (s, p, o) binding with the coalesced
    validity restricted to the scan window.
    """
    grouped: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    window = plan.time_range
    w_start, w_end = window.start, window.end
    equal_slots = plan.equal_slots
    pieces = scan_pieces(tree, plan.key_low, plan.key_high, w_start, w_end)
    for key, lo, hi, _ in pieces:
        if equal_slots and any(key[a] != key[b] for a, b in equal_slots):
            continue
        # Restrict to the scan window inline (point-based semantics).
        grouped[key].append((max(lo, w_start), min(hi, w_end)))
    if _metrics.ENABLED:
        _SCANS.inc()
        _SCAN_ROWS.inc(len(grouped))
    for key, parts in grouped.items():
        validity = PeriodSet.from_intervals(parts)
        row: Row = {name: key[slot] for name, slot in plan.var_slots.items()}
        if plan.time_var is not None:
            row[plan.time_var] = validity
        yield row


def synchronized_join_applicable(
    left_plan: PatternPlan, right_plan: PatternPlan, shared: set[str]
) -> bool:
    """Whether the cache-optimized synchronized join (Section 5.2.2) can
    and should evaluate this join.

    The paper uses it when a join input accesses a large portion of its
    index instead of materializing a hash table: both sides must be
    predicate-bound patterns on the POS order joining on their subject
    variable plus the shared temporal element, with wide time windows.
    """
    if left_plan.index_order != "pos" or right_plan.index_order != "pos":
        return False
    if left_plan.equal_slots or right_plan.equal_slots:
        return False
    if left_plan.time_var is None or right_plan.time_var is None:
        return False
    if left_plan.time_var != right_plan.time_var:
        return False
    subject_slot = 2  # POS keys are (p, o, s)
    left_subject = _var_at_slot(left_plan, subject_slot)
    right_subject = _var_at_slot(right_plan, subject_slot)
    if left_subject is None or left_subject != right_subject:
        return False
    if shared != {left_subject, left_plan.time_var}:
        return False
    # "Large portion": both scans are effectively unconstrained in time.
    wide = NOW // 2
    return (
        left_plan.time_range.length() >= wide
        and right_plan.time_range.length() >= wide
    )


def _var_at_slot(plan: PatternPlan, slot: int) -> str | None:
    for name, at in plan.var_slots.items():
        if at == slot:
            return name
    return None


def synchronized_join_rows(
    left_tree: MVBT,
    left_plan: PatternPlan,
    right_tree: MVBT,
    right_plan: PatternPlan,
) -> Iterator[Row]:
    """Evaluate a two-pattern temporal join with the synchronized join."""
    from ..mvbt.join import synchronized_join

    subject_slot = 2
    rows_out = 0
    for lkey, rkey, periods in synchronized_join(
        left_tree,
        right_tree,
        left_key=lambda k: k[subject_slot],
        right_key=lambda k: k[subject_slot],
        key_low=left_plan.key_low,
        key_high=left_plan.key_high,
        right_key_low=right_plan.key_low,
        right_key_high=right_plan.key_high,
    ):
        row: Row = {
            name: lkey[slot] for name, slot in left_plan.var_slots.items()
        }
        for name, slot in right_plan.var_slots.items():
            row[name] = rkey[slot]
        row[left_plan.time_var] = periods
        rows_out += 1
        yield row
    if _metrics.ENABLED:
        _SYNC_JOINS.inc()
        _SYNC_JOIN_ROWS.inc(rows_out)


def hash_join_rows(
    left: Iterable[Row], right: Iterable[Row], shared: set[str]
) -> Iterator[Row]:
    """Temporal hash join of two row streams on their shared variables.

    Non-temporal shared variables form the hash key; shared temporal
    variables are intersected, and rows with an empty intersection are
    dropped (the point-based join semantics of Section 3.2).
    """
    left_rows = list(left)
    if not left_rows:
        return
    probe_sample = left_rows[0]
    temporal = {
        name
        for name in shared
        if isinstance(probe_sample.get(name), PeriodSet)
    }
    key_vars = sorted(shared - temporal)

    table: dict[tuple, list[Row]] = defaultdict(list)
    for row in left_rows:
        table[tuple(row.get(name) for name in key_vars)].append(row)
    rows_out = 0
    for right_row in right:
        matches = table.get(tuple(right_row.get(name) for name in key_vars))
        if not matches:
            continue
        for left_row in matches:
            merged = _merge_rows(left_row, right_row, temporal)
            if merged is not None:
                rows_out += 1
                yield merged
    if _metrics.ENABLED:
        _HASH_JOINS.inc()
        _HASH_JOIN_ROWS.inc(rows_out)


def _merge_rows(
    left: Row, right: Row, temporal: set[str]
) -> Row | None:
    merged = dict(left)
    for name, value in right.items():
        if name in temporal and name in left:
            common = left[name].intersect(value)
            if common.is_empty:
                return None
            merged[name] = common
        elif name in merged:
            if merged[name] != value:
                return None
        else:
            merged[name] = value
    return merged


def left_outer_join_rows(
    left: Iterable[Row], right: Iterable[Row], shared: set[str]
) -> Iterator[Row]:
    """SPARQL OPTIONAL: keep every left row, extended where the right side
    matches (temporal shared variables intersect, as in the inner join)."""
    left_rows = list(left)
    if not left_rows:
        return
    right_rows = list(right)
    temporal = {
        name
        for name in shared
        if left_rows and isinstance(left_rows[0].get(name), PeriodSet)
    }
    key_vars = sorted(shared - temporal)
    table: dict[tuple, list[Row]] = defaultdict(list)
    for row in right_rows:
        table[tuple(row.get(name) for name in key_vars)].append(row)
    for left_row in left_rows:
        matches = table.get(tuple(left_row.get(name) for name in key_vars), [])
        extended = []
        for right_row in matches:
            merged = _merge_rows(left_row, right_row, temporal)
            if merged is not None:
                extended.append(merged)
        if extended:
            yield from extended
        else:
            yield dict(left_row)


def nested_loop_product(
    left: Iterable[Row], right: Iterable[Row]
) -> Iterator[Row]:
    """Cross product for disconnected plan graphs (no shared variables)."""
    left_rows = list(left)
    for right_row in right:
        for left_row in left_rows:
            yield {**left_row, **right_row}


def apply_filters(
    rows: Iterable[Row],
    conjuncts: list[Expr],
    dictionary: Dictionary,
    horizon: int,
) -> Iterator[Row]:
    """Apply filter conjuncts: restrictions narrow temporal bindings,
    everything else is evaluated as a boolean predicate on the decoded row.
    """
    restrictions: list[tuple[str, Compare]] = []
    predicates: list[Expr] = []
    for conjunct in conjuncts:
        target = restriction_target(conjunct)
        if target is not None:
            restrictions.append((target, conjunct))
        else:
            predicates.append(conjunct)

    rows_in = rows_out = 0
    for row in rows:
        rows_in += 1
        out = dict(row)
        dead = False
        for target, conjunct in restrictions:
            value = out.get(target)
            if not isinstance(value, PeriodSet):
                # The restriction names a non-temporal variable; evaluate it
                # as an ordinary predicate instead.
                predicates = predicates + [conjunct]
                restrictions = [
                    (t, c) for t, c in restrictions if c is not conjunct
                ]
                continue
            narrowed = restrict(conjunct, value, horizon)
            if narrowed.is_empty:
                dead = True
                break
            out[target] = narrowed
        if dead:
            continue
        if predicates:
            decoded = decode_row(out, dictionary)
            if not all(
                evaluate(predicate, decoded, horizon)
                for predicate in predicates
            ):
                continue
        rows_out += 1
        yield out
    if _metrics.ENABLED:
        _FILTER_ROWS_IN.inc(rows_in)
        _FILTER_ROWS_OUT.inc(rows_out)


def decode_row(row: Row, dictionary: Dictionary) -> Row:
    """Decode term ids to strings, leaving temporal bindings untouched."""
    return {
        name: dictionary.decode(value) if isinstance(value, int) else value
        for name, value in row.items()
    }


def project(
    rows: Iterable[Row], select: list[str], dictionary: Dictionary
) -> list[Row]:
    """Decode and project the SELECT variables, deduplicating rows."""
    seen: set[tuple] = set()
    out: list[Row] = []
    for row in rows:
        projected = {}
        for name in select:
            value = row.get(name)
            if isinstance(value, int):
                value = dictionary.decode(value)
            projected[name] = value
        fingerprint = tuple(
            (name, projected[name]) for name in select
        )
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        out.append(projected)
    return out
