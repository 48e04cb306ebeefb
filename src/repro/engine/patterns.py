"""Translating SPARQLT graph patterns to MVBT query regions (Section 5.1).

A point-based quad pattern ``{s p o t}`` becomes an interval-based *query
region*: a key range on one of the three MVBT key orders plus a time
range.  The key order is chosen from the constant positions so the
constants form a key prefix:

====================  ===========  =================
constant positions    index order   key prefix
====================  ===========  =================
(none), S, SP, SPO    SPO           (), (s), (s,p), (s,p,o)
SO                    SPO           (s), object checked in the scan
P, PO                 POS           (p), (p, o)
O                     OPS           (o)
====================  ===========  =================

The paper keeps a fourth order, SOP, for subject-and-object patterns.  A
subject holds a few dozen facts, so SPO's subject prefix with the object
compared inline (:attr:`PatternPlan.key_check`) answers them without a
tree that every write and snapshot would otherwise pay for.

The time range comes from a constant temporal element or from the pushdown
windows of FILTER restrictions on the pattern's temporal variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model.dictionary import Dictionary
from ..model.time import MIN_TIME, NOW, Period
from ..mvbt.entry import Key
from ..mvbt.scan import MAX_KEY, prefix_range
from ..sparqlt.ast import Expr, QuadPattern, TermConst, TimeConst, Var
from ..sparqlt.functions import pushdown_window, restriction_target

#: Index orders: name -> permutation mapping key slots to s/p/o letters.
INDEX_ORDERS = {
    "spo": ("s", "p", "o"),
    "pos": ("p", "o", "s"),
    "ops": ("o", "p", "s"),
}

_ORDER_FOR_CONSTANTS = {
    frozenset(): "spo",
    frozenset("s"): "spo",
    frozenset("sp"): "spo",
    frozenset("spo"): "spo",
    frozenset("so"): "spo",
    frozenset("p"): "pos",
    frozenset("po"): "pos",
    frozenset("o"): "ops",
}


class UnknownTermError(LookupError):
    """A constant term does not exist in the dictionary.

    The pattern can never match; callers treat the plan as empty.
    """


@dataclass
class PatternPlan:
    """An executable translation of one quad pattern."""

    pattern: QuadPattern
    index_order: str
    key_low: Key
    key_high: Key
    time_range: Period
    #: var name -> slot index (0-2) in the chosen key order, for binding.
    var_slots: dict[str, int] = field(default_factory=dict)
    #: slot pairs that must be equal (repeated variable in the pattern).
    equal_slots: list[tuple[int, int]] = field(default_factory=list)
    #: (slot, term id) of a constant past the key prefix, which the scan
    #: compares inline: the object of an SO pattern on SPO.  The order
    #: table leaves at most one.
    key_check: tuple[int, int] | None = None
    #: name of the temporal variable, if the time position is a variable.
    time_var: str | None = None
    #: optimizer-estimated cardinality, filled in by the optimizer.
    estimate: float | None = None

    @property
    def pattern_type(self) -> str:
        return self.pattern.constant_positions()


def translate_pattern(
    pattern: QuadPattern,
    dictionary: Dictionary,
    filter_conjuncts: list[Expr] = (),
) -> PatternPlan:
    """Build the query region for one pattern (paper Section 5.1).

    Raises :class:`UnknownTermError` when a constant term is not in the
    dictionary (the pattern has no matches).
    """
    terms = {"s": pattern.subject, "p": pattern.predicate, "o": pattern.object}
    constants = frozenset(
        letter for letter, term in terms.items() if isinstance(term, TermConst)
    )
    order_name = _ORDER_FOR_CONSTANTS[constants]
    order = INDEX_ORDERS[order_name]

    prefix: list[int] = []
    key_check: tuple[int, int] | None = None
    var_slots: dict[str, int] = {}
    equal_slots: list[tuple[int, int]] = []
    for slot, letter in enumerate(order):
        term = terms[letter]
        if isinstance(term, Var):
            if term.name in var_slots:
                equal_slots.append((var_slots[term.name], slot))
            else:
                var_slots[term.name] = slot
            continue
        term_id = dictionary.lookup(term.value)
        if term_id is None:
            raise UnknownTermError(term.value)
        if len(prefix) == slot:
            prefix.append(term_id)
        else:
            key_check = (slot, term_id)
    key_low, key_high = prefix_range(tuple(prefix))

    time_var: str | None = None
    if isinstance(pattern.time, TimeConst):
        time_range = Period.point(pattern.time.chronon)
    else:
        time_var = pattern.time.name
        time_range = _window_from_filters(time_var, filter_conjuncts)

    return PatternPlan(
        pattern=pattern,
        index_order=order_name,
        key_low=key_low,
        key_high=key_high,
        time_range=time_range,
        var_slots=var_slots,
        equal_slots=equal_slots,
        key_check=key_check,
        time_var=time_var,
    )


def _window_from_filters(
    time_var: str, conjuncts: list[Expr]
) -> Period:
    """Intersect the pushdown windows of all restrictions on ``time_var``."""
    window = Period.always()
    for conjunct in conjuncts:
        if restriction_target(conjunct) != time_var:
            continue
        narrowed = pushdown_window(conjunct)
        if narrowed is None:
            continue
        common = window.intersect(narrowed)
        if common is None:
            # Contradictory restrictions: empty scan region.  Encode as the
            # smallest possible window starting at the narrowed edge; the
            # executor short-circuits on zero-width ranges.
            return Period.point(MIN_TIME)
        window = common
    return window


def decode_key_to_spo(
    key: Key, order_name: str
) -> tuple[int, int, int]:
    """Map an index key back to (subject, predicate, object) ids."""
    order = INDEX_ORDERS[order_name]
    mapping = dict(zip(order, key))
    return mapping["s"], mapping["p"], mapping["o"]
