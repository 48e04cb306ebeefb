"""Abstract syntax of SPARQLT queries (Section 3).

A query is a SELECT clause over a group of quad patterns ``{s p o t}``
plus FILTER expressions, UNION alternatives, and OPTIONAL sub-groups.
Terms are either variables (:class:`Var`) or constants; the temporal
position additionally accepts date literals.  ``(P UNION P')`` and
``(P OPT P')`` are the paper's declared future work (Section 3.1),
implemented here with the standard SPARQL algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True)
class Var:
    """A query variable, e.g. ``?university``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class TermConst:
    """A constant URI or literal in a pattern position."""

    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TimeConst:
    """A constant chronon in the temporal position."""

    chronon: int


PatternTerm = Union[Var, TermConst]
PatternTime = Union[Var, TimeConst]


@dataclass(frozen=True)
class QuadPattern:
    """A SPARQLT graph pattern ``{s p o t}``."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm
    time: PatternTime

    def variables(self) -> set[str]:
        """Names of all variables used in the pattern."""
        out = set()
        for term in (self.subject, self.predicate, self.object, self.time):
            if isinstance(term, Var):
                out.add(term.name)
        return out

    def constant_positions(self) -> str:
        """The pattern type, e.g. ``"SPT"`` when s, p and t are constant.

        SPARQLT supports all 16 combinations over S/P/O/T (Section 3.1).
        """
        letters = []
        for letter, term in zip("SPO", (self.subject, self.predicate, self.object)):
            if isinstance(term, TermConst):
                letters.append(letter)
        if isinstance(self.time, TimeConst):
            letters.append("T")
        return "".join(letters)

    def __str__(self) -> str:
        time = (
            str(self.time)
            if isinstance(self.time, Var)
            else f"@{self.time.chronon}"
        )
        return f"{{{self.subject} {self.predicate} {self.object} {time}}}"


# --------------------------------------------------------------- expressions


@dataclass(frozen=True)
class Literal:
    """A literal operand in a filter: string, number, date or duration.

    ``kind`` is one of ``"string"``, ``"number"``, ``"date"`` and
    ``"duration"`` (durations are normalized to days).
    """

    value: object
    kind: str


@dataclass(frozen=True)
class FuncCall:
    """A built-in call: YEAR/MONTH/DAY/TSTART/TEND/LENGTH/TOTAL_LENGTH."""

    name: str
    arg: "Expr"


@dataclass(frozen=True)
class Compare:
    """A comparison ``left op right`` with op in =, !=, <, <=, >, >=."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


Expr = Union[Var, Literal, FuncCall, Compare, And, Or, Not]


def conjuncts(expr: Expr) -> list[Expr]:
    """Flatten the top-level conjunction of a filter expression."""
    if isinstance(expr, And):
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def expr_variables(expr: Expr) -> set[str]:
    """Names of all variables appearing in an expression."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, FuncCall):
        return expr_variables(expr.arg)
    if isinstance(expr, Compare):
        return expr_variables(expr.left) | expr_variables(expr.right)
    if isinstance(expr, (And, Or)):
        return expr_variables(expr.left) | expr_variables(expr.right)
    if isinstance(expr, Not):
        return expr_variables(expr.operand)
    return set()


@dataclass
class GroupGraphPattern:
    """A group of SPARQLT elements: base quad patterns, FILTERs, UNION
    alternatives, and OPTIONAL sub-groups.

    The paper's published SPARQLT covers conjunctions and filters;
    ``(P UNION P')`` and ``(P OPT P')`` are its declared future work
    (Section 3.1) and are implemented here as group-level operators with
    the standard SPARQL algebra: ``Join(base, Union(a, b, ...))`` and a
    left outer join for OPTIONAL.
    """

    patterns: list[QuadPattern] = field(default_factory=list)
    filters: list["Expr"] = field(default_factory=list)
    #: each union is a list of alternative groups (A UNION B UNION ...).
    unions: list[list["GroupGraphPattern"]] = field(default_factory=list)
    optionals: list["GroupGraphPattern"] = field(default_factory=list)

    def quad_patterns(self) -> list[QuadPattern]:
        """Every quad pattern of the group: the base patterns first, then
        the UNION branches' and the OPTIONALs' (recursively)."""
        out = list(self.patterns)
        for union in self.unions:
            for branch in union:
                out.extend(branch.quad_patterns())
        for optional in self.optionals:
            out.extend(optional.quad_patterns())
        return out

    def variables(self) -> set[str]:
        return set().union(*(p.variables() for p in self.quad_patterns()))

    def filter_conjuncts(self) -> list["Expr"]:
        out: list["Expr"] = []
        for expr in self.filters:
            out.extend(conjuncts(expr))
        return out


@dataclass
class Query:
    """A parsed SPARQLT query."""

    select: list[str]
    patterns: list[QuadPattern]
    filters: list[Expr] = field(default_factory=list)
    #: the full group structure; for plain conjunctive queries it holds the
    #: same patterns/filters as the two legacy fields above.
    group: "GroupGraphPattern | None" = None

    def __post_init__(self) -> None:
        if self.group is None:
            self.group = GroupGraphPattern(
                patterns=self.patterns, filters=self.filters
            )

    def variables(self) -> set[str]:
        return self.group.variables()

    def filter_conjuncts(self) -> list[Expr]:
        """All top-level conjuncts across every FILTER clause."""
        return self.group.filter_conjuncts()
