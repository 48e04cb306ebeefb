"""Hypothesis strategies for SPARQLT queries, shaped as ``parse`` returns them.

:func:`queries` draws a :class:`~repro.sparqlt.ast.Query` whose parts are
what the parser builds from some text: any of the 16 pattern types,
UNION and OPTIONAL groups, and FILTERs with every built-in over the
variables the query binds, joined by ``&&``, ``||`` and ``!``.  Constants
include the spellings the lexer treats specially (keywords, function
names) and strings with quotes and backslashes, so a renderer or an
evaluator meets every token shape.
"""

from __future__ import annotations

import functools

from hypothesis import strategies as st

from repro.model.time import date_to_chronon
from repro.sparqlt.ast import (
    And,
    Compare,
    FuncCall,
    GroupGraphPattern,
    Literal,
    Not,
    Or,
    QuadPattern,
    Query,
    TermConst,
    TimeConst,
    Var,
)

#: term and time variables: a small pool, so that patterns join.
TERM_VARIABLES = ("s", "o", "x")
TIME_VARIABLES = ("t", "u")

#: constants spelled like what the lexer reads as something else.
SPELLINGS = ("select", "Where", "FILTER", "union", "optional", "year",
             "Month", "DAY", "tstart", "TEND", "length", "total_length")

OPS = ("=", "!=", "<", "<=", ">", ">=")

dates = st.integers(date_to_chronon("1900-01-01"),
                    date_to_chronon("2099-12-31"))
strings = st.text(st.characters(exclude_categories=["Cs"]), max_size=8) | \
    st.sampled_from(['"', "\\", '\\"', 'a"b\\c', "two words", ""])
numbers = st.integers(0, 10**6) | st.floats(
    min_value=0, allow_nan=False, allow_infinity=False)

constants = st.sampled_from(("uc", "um", "president", "p", "q")) | \
    st.sampled_from(SPELLINGS) | strings | \
    st.integers(0, 9999).map(str) | st.from_regex(r"[a-z][\w:/#.-]{0,6}",
                                                  fullmatch=True)


_position = st.sampled_from(TERM_VARIABLES).map(Var) | \
    constants.map(TermConst)

#: a quad pattern of any of the 16 types (each of S, P, O and T a
#: constant or a variable).
patterns = st.builds(
    QuadPattern, _position, _position, _position,
    st.sampled_from(TIME_VARIABLES).map(Var) | dates.map(TimeConst))


def conditions(term_vars: tuple[str, ...],
               time_vars: tuple[str, ...]) -> st.SearchStrategy:
    """One comparison over the given variables: a temporal built-in
    against its kind of literal, or a term against a string."""
    options = []
    if time_vars:
        var = st.sampled_from(time_vars).map(Var)
        options += [
            st.builds(Compare, st.sampled_from(OPS), var,
                      dates.map(lambda c: Literal(c, "date"))),
            st.builds(Compare, st.sampled_from(OPS),
                      st.builds(FuncCall, st.sampled_from(
                          ["YEAR", "MONTH", "DAY"]), var),
                      st.integers(1, 2100).map(
                          lambda n: Literal(n, "number"))),
            st.builds(Compare, st.sampled_from(OPS),
                      st.builds(FuncCall, st.sampled_from(
                          ["TSTART", "TEND"]), var),
                      dates.map(lambda c: Literal(c, "date"))),
            st.builds(Compare, st.sampled_from(OPS),
                      st.builds(FuncCall, st.sampled_from(
                          ["LENGTH", "TOTAL_LENGTH"]), var),
                      st.integers(0, 5000).map(
                          lambda n: Literal(n, "duration"))
                      | numbers.map(lambda n: Literal(n, "number"))),
        ]
    if term_vars:
        options.append(st.builds(
            Compare, st.sampled_from(["=", "!="]),
            st.sampled_from(term_vars).map(Var),
            strings.map(lambda text: Literal(text, "string"))))
    return st.one_of(options)


@functools.cache
def filters(term_vars: tuple[str, ...],
            time_vars: tuple[str, ...]) -> st.SearchStrategy:
    """A FILTER expression: conditions under ``&&``, ``||`` and ``!``."""
    return st.recursive(
        conditions(term_vars, time_vars),
        lambda inner: st.builds(And, inner, inner)
        | st.builds(Or, inner, inner) | st.builds(Not, inner),
        max_leaves=5,
    )


@functools.cache
def groups(depth: int = 0) -> st.SearchStrategy[GroupGraphPattern]:
    """A group: patterns, then (above the innermost level) UNIONs and
    OPTIONALs, then FILTERs over the variables the group binds."""
    return _groups(depth)


@st.composite
def _groups(draw, depth: int) -> GroupGraphPattern:
    group = GroupGraphPattern(patterns=draw(st.lists(
        patterns, min_size=1 if depth == 0 else 0, max_size=3)))
    if depth < 2:
        group.unions = draw(st.lists(
            st.lists(groups(depth + 1), min_size=1, max_size=3),
            max_size=1))
        group.optionals = draw(st.lists(groups(depth + 1), max_size=1))
    bound = group.variables()
    term_vars = tuple(sorted(bound & set(TERM_VARIABLES)))
    time_vars = tuple(sorted(bound & set(TIME_VARIABLES)))
    if bound:
        group.filters = draw(st.lists(filters(term_vars, time_vars),
                                      max_size=2))
    return group


@st.composite
def queries(draw) -> Query:
    """A whole query, as :func:`~repro.sparqlt.parser.parse` builds it."""
    group = draw(groups())
    bound = sorted(group.variables())
    select = draw(st.lists(
        st.sampled_from(bound or list(TERM_VARIABLES)),
        min_size=1, max_size=3))
    return Query(select=select, patterns=group.patterns,
                 filters=group.filters, group=group)
