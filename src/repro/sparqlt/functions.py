"""Evaluation semantics of SPARQLT filters and temporal built-ins (Sec 3).

SPARQLT is point-based: a temporal variable ``?t`` denotes a *set of
chronons*, carried as a coalesced :class:`~repro.model.time.PeriodSet`.
Filter conjuncts interact with temporal variables in two ways:

* **Restrictions** — conjuncts of the form ``?t op date`` and
  ``YEAR/MONTH/DAY(?t) op n`` *restrict* the point set: the surviving binding
  contains exactly the chronons satisfying the condition (Example 2: the
  budget valid in 2013 binds ``?t`` to the 2013 portion of its validity).
* **Conditions** — everything else (``LENGTH``, ``TOTAL_LENGTH``, ``TSTART``,
  ``TEND`` comparisons, disjunctions, negations, non-temporal comparisons)
  evaluates to a boolean on the *restricted* binding.

Following the point-based reading, a bare comparison ``?t op c`` used inside
a disjunction or negation is existential: it holds when some chronon of the
binding satisfies it.  ``LENGTH`` is the length of the longest maximal period
of the binding and ``TOTAL_LENGTH`` the summed length, exactly as defined in
Section 3.1.
"""

from __future__ import annotations

import datetime as _dt
import re
from typing import Mapping

from ..model.time import (
    MIN_TIME,
    NOW,
    Period,
    PeriodSet,
    chronon_to_date,
    date_to_chronon,
    month_range,
    year_of,
    year_range,
)
from .ast import Compare, Expr, FuncCall, Literal, Not, Or, And, Var
from .errors import EvaluationError

#: Value bound to a variable in a row: an RDF term or a chronon set.
Binding = Mapping[str, object]

_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_CALENDAR_FUNCS = {"YEAR", "MONTH", "DAY"}


# --------------------------------------------------------------- restriction


def restriction_target(expr: Expr) -> str | None:
    """The temporal variable restricted by ``expr``, if it is a restriction.

    Restrictions are conjunct-level comparisons ``?t op <date>`` or
    ``YEAR/MONTH/DAY(?t) op <number>``.
    """
    if not isinstance(expr, Compare):
        return None
    for left, right in ((expr.left, expr.right), (expr.right, expr.left)):
        var = _restrictable_side(left)
        if var is None or not isinstance(right, Literal):
            continue
        # A bare variable restricts only against a date literal; calendar
        # functions restrict against plain numbers (YEAR(?t) = 2013).
        if isinstance(left, Var) and right.kind == "date":
            return var
        if isinstance(left, FuncCall) and right.kind == "number":
            return var
    return None


def _restrictable_side(expr: Expr) -> str | None:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, FuncCall) and expr.name in _CALENDAR_FUNCS:
        if isinstance(expr.arg, Var):
            return expr.arg.name
    return None


def restrict(expr: Compare, periods: PeriodSet, horizon: int) -> PeriodSet:
    """Apply a restriction conjunct to a chronon set.

    ``horizon`` is one past the largest concrete chronon in the data; live
    periods are treated as extending to it for calendar enumeration and the
    surviving live tail is restored afterwards.
    """
    windows = _restriction_windows(expr, periods, horizon)
    if windows is None:
        raise EvaluationError(f"not a restriction: {expr}")
    out = PeriodSet()
    for window in windows:
        out = out.union(periods.restrict(window))
    return out


def _restriction_windows(
    expr: Compare, periods: PeriodSet, horizon: int
) -> list[Period] | None:
    """The chronon windows admitted by a restriction conjunct."""
    left, right, op = expr.left, expr.right, expr.op
    if _restrictable_side(left) is None:
        # Normalize ``literal op ?t`` to ``?t flipped-op literal``.
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[op]
    if not isinstance(right, Literal):
        return None
    if isinstance(left, Var):
        return _chronon_windows(op, int(right.value))
    if not isinstance(left, FuncCall):
        return None  # Not a restrictable side; fall back to row filtering.
    value = int(right.value)
    if left.name == "YEAR":
        return _year_windows(op, value)
    if left.name == "MONTH":
        return _month_windows(op, value, periods, horizon)
    if left.name == "DAY":
        return _day_windows(op, value, periods, horizon)
    return None


def _chronon_windows(op: str, chronon: int) -> list[Period]:
    if op == "=":
        return [Period.point(chronon)]
    if op == "!=":
        out = []
        if chronon > MIN_TIME:
            out.append(Period(MIN_TIME, chronon))
        out.append(Period(chronon + 1, NOW))
        return out
    if op == "<":
        return [Period(MIN_TIME, chronon)] if chronon > MIN_TIME else []
    if op == "<=":
        return [Period(MIN_TIME, chronon + 1)]
    if op == ">":
        return [Period(chronon + 1, NOW)]
    return [Period(chronon, NOW)]  # >=


def _year_windows(op: str, year: int) -> list[Period]:
    span = year_range(year)
    if op == "=":
        return [span]
    if op == "!=":
        out = []
        if span.start > MIN_TIME:
            out.append(Period(MIN_TIME, span.start))
        out.append(Period(span.end, NOW))
        return out
    if op == "<":
        return [Period(MIN_TIME, span.start)] if span.start > MIN_TIME else []
    if op == "<=":
        return [Period(MIN_TIME, span.end)]
    if op == ">":
        return [Period(span.end, NOW)]
    return [Period(span.start, NOW)]  # >=


def _iter_concrete(periods: PeriodSet, horizon: int):
    """The concrete (clipped-to-horizon) periods of a binding."""
    for period in periods:
        end = min(period.end, horizon)
        if period.start < end:
            yield period.start, end


def _month_windows(
    op: str, month: int, periods: PeriodSet, horizon: int
) -> list[Period]:
    """Calendar months inside the binding satisfying ``month op value``."""
    out = []
    for start, end in _iter_concrete(periods, horizon):
        date = chronon_to_date(start).replace(day=1)
        last = chronon_to_date(end - 1)
        while date <= last:
            if _OPS[op](date.month, month):
                out.append(month_range(date.year, date.month))
            if date.month == 12:
                date = date.replace(year=date.year + 1, month=1)
            else:
                date = date.replace(month=date.month + 1)
    return out


def _day_windows(
    op: str, day: int, periods: PeriodSet, horizon: int
) -> list[Period]:
    """Calendar days inside the binding satisfying ``day-of-month op value``."""
    out = []
    for start, end in _iter_concrete(periods, horizon):
        for chronon in range(start, end):
            if _OPS[op](chronon_to_date(chronon).day, day):
                out.append(Period.point(chronon))
    return out


def pushdown_window(expr: Expr) -> Period | None:
    """The time window implied by a restriction, for index-scan pushdown.

    Only contiguous restrictions (chronon comparisons and YEAR) produce a
    window; MONTH/DAY restrictions are applied after the scan.  Returns
    ``None`` when the conjunct does not narrow the scan.
    """
    if not isinstance(expr, Compare):
        return None
    if restriction_target(expr) is None:
        return None
    left = expr.left if _restrictable_side(expr.left) else expr.right
    if isinstance(left, FuncCall) and left.name in ("MONTH", "DAY"):
        return None
    windows = _restriction_windows(expr, PeriodSet(), MIN_TIME)
    if not windows or len(windows) > 1:
        return None
    return windows[0]


# ------------------------------------------------------------------- values


def eval_value(expr: Expr, row: Binding, horizon: int):
    """Evaluate an operand to a comparable value."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Var):
        try:
            return row[expr.name]
        except KeyError:
            raise EvaluationError(f"unbound variable ?{expr.name}") from None
    if isinstance(expr, FuncCall):
        return _eval_function(expr, row, horizon)
    raise EvaluationError(f"not a value expression: {expr}")


def _eval_function(call: FuncCall, row: Binding, horizon: int):
    value = eval_value(call.arg, row, horizon)
    periods = _as_periods(value)
    if periods.is_empty:
        raise EvaluationError(f"{call.name} of an empty chronon set")
    if call.name == "TSTART":
        return periods.first()
    if call.name == "TEND":
        # TEND is *exclusive* (the first chronon after the set), NOW for a
        # live set.  The paper defines TEND as the last element but then uses
        # ``TEND(?t1) = TSTART(?t2)`` for succession (Example 5), which with
        # Table 2's data only matches when TEND means the half-open end
        # (Yudof ends 09/29, Napolitano starts 09/30).  We follow the usage,
        # not the one-line definition, and document the deviation.
        last_period = periods.periods[-1]
        return NOW if last_period.is_live else last_period.end
    if call.name == "LENGTH":
        return _clip(periods, horizon).max_length()
    if call.name == "TOTAL_LENGTH":
        return _clip(periods, horizon).total_length()
    if call.name in _CALENDAR_FUNCS:
        # Calendar functions of a single chronon; over a set they are only
        # meaningful inside restrictions, but a singleton set evaluates.
        if periods.total_length() == 1 or (
            len(periods) == 1 and periods.periods[0].length() == 1
        ):
            date = chronon_to_date(periods.first())
            return {"YEAR": date.year, "MONTH": date.month, "DAY": date.day}[
                call.name
            ]
        raise EvaluationError(
            f"{call.name} over a non-singleton chronon set is only valid "
            "as a restriction"
        )
    raise EvaluationError(f"unknown function {call.name}")


def _clip(periods: PeriodSet, horizon: int) -> PeriodSet:
    """Clip live periods to the data horizon so durations are finite."""
    if not any(p.is_live for p in periods):
        return periods
    clipped = [
        Period(p.start, min(p.end, horizon))
        for p in periods
        if p.start < min(p.end, horizon)
    ]
    return PeriodSet(clipped)


def _as_periods(value) -> PeriodSet:
    if isinstance(value, PeriodSet):
        return value
    if isinstance(value, Period):
        return PeriodSet.single(value)
    if isinstance(value, int):
        return PeriodSet.single(Period.point(value))
    raise EvaluationError(f"expected a temporal value, got {value!r}")


# ------------------------------------------------------------------ boolean


def evaluate(expr: Expr, row: Binding, horizon: int) -> bool:
    """Evaluate a filter expression to a boolean over one binding."""
    if isinstance(expr, And):
        return evaluate(expr.left, row, horizon) and evaluate(
            expr.right, row, horizon
        )
    if isinstance(expr, Or):
        return evaluate(expr.left, row, horizon) or evaluate(
            expr.right, row, horizon
        )
    if isinstance(expr, Not):
        return not evaluate(expr.operand, row, horizon)
    if isinstance(expr, Compare):
        return _evaluate_compare(expr, row, horizon)
    if isinstance(expr, Var):
        return bool(row.get(expr.name))
    raise EvaluationError(f"not a boolean expression: {expr}")


def _evaluate_compare(expr: Compare, row: Binding, horizon: int) -> bool:
    # Restrictions used in a boolean context (inside ||, !) hold when some
    # chronon of the binding satisfies them (existential, point-based).
    target = restriction_target(expr)
    if target is not None and isinstance(row.get(target), PeriodSet):
        return not restrict(expr, row[target], horizon).is_empty
    left = eval_value(expr.left, row, horizon)
    right = eval_value(expr.right, row, horizon)
    return _compare_values(expr.op, left, right)


def _compare_values(op: str, left, right) -> bool:
    if isinstance(left, PeriodSet) or isinstance(right, PeriodSet):
        return _compare_temporal(op, _as_periods(left), _as_periods(right))
    left, right = _coerce_pair(left, right)
    try:
        return _OPS[op](left, right)
    except TypeError:
        raise EvaluationError(
            f"cannot compare {left!r} and {right!r}"
        ) from None


def _compare_temporal(op: str, left: PeriodSet, right: PeriodSet) -> bool:
    """Existential point-based comparison of two chronon sets."""
    if left.is_empty or right.is_empty:
        return False
    if op == "=":
        return not left.intersect(right).is_empty
    if op == "!=":
        return left != right
    if op == "<":
        return left.first() < right.last()
    if op == "<=":
        return left.first() <= right.last()
    if op == ">":
        return left.last() > right.first()
    return left.last() >= right.first()  # >=


def _coerce_pair(left, right):
    """Coerce string terms to numbers when compared against numbers."""
    if isinstance(left, str) and isinstance(right, (int, float)):
        return _as_number(left), right
    if isinstance(right, str) and isinstance(left, (int, float)):
        return left, _as_number(right)
    return left, right


#: XSD integer, decimal and double numerals, ASCII digits only (no
#: whitespace, underscores, other scripts' digits, or INF / NaN).
_INTEGER = re.compile(r"[+-]?[0-9]+")
_NUMERAL = re.compile(
    r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _as_number(text: str):
    """A term's numeric value: an ``int`` for an integer numeral, a
    ``float`` for a decimal or double one; any other spelling is not a
    number (Python's own ``int``/``float`` would read ``1_000``, `` 1000``,
    ``１０００``, ``nan`` and ``inf``)."""
    if _INTEGER.fullmatch(text):
        return int(text)
    if _NUMERAL.fullmatch(text):
        return float(text)
    raise EvaluationError(f"term {text!r} is not numeric")
