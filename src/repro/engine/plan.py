"""Query plans (Section 5.1).

A SPARQLT query is planned as a *plan graph*: one node per interval-based
query pattern, with an edge wherever two patterns share a variable (joins).
The optimizer reorders the joins over it.  Once the order is chosen the
graph is compiled into a :class:`CompiledPlan`: the scans in execution
order with everything the executor decides per step worked out up front —
join variables, where each filter conjunct runs (:func:`conjunct_ready`),
whether the first pair runs as a synchronized join, and the optimizer's
estimates.  :func:`compile_group` builds the UNION and OPTIONAL tree
around such base joins; the engine caches a text as one
:class:`QueryPlan`, which keeps of the parse tree only the filter
expressions it evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from ..model.dictionary import Dictionary
from ..mvbt.entry import MAX_KEY_COMPONENT, Key
from ..sparqlt.ast import (Expr, GroupGraphPattern, QuadPattern, Query, Var,
                           expr_variables)
from ..sparqlt.functions import restriction_target
from .operators import synchronized_join_applicable
from .patterns import INDEX_ORDERS, PatternPlan


def time_variables(patterns: Iterable[QuadPattern]) -> set[str]:
    """The temporal variables the patterns bind."""
    return {p.time.name for p in patterns if isinstance(p.time, Var)}


def conjunct_ready(conjunct: Expr, bound: set[str], rebound: set[str]) -> bool:
    """Whether a filter conjunct sees final values once the variables in
    ``bound`` hold values and later patterns still bind the temporal
    variables in ``rebound``.

    SPARQLT is point-based: a join intersects the temporal variables it
    shares, so a temporal variable holds its final value only after the
    last pattern that binds it, while a term variable holds it from its
    first binding.  A restriction (``?t op date``, ``YEAR(?t) op n``, ...)
    commutes with that intersection and may run as soon as its variable
    is bound.  Every evaluator places its conjuncts by this one rule.
    """
    needs = expr_variables(conjunct)
    return needs <= bound and (
        not needs & rebound or restriction_target(conjunct) is not None
    )


@dataclass
class PlanGraph:
    """The join graph over translated patterns."""

    patterns: list[PatternPlan]
    #: the filter conjuncts the compiled plan places on its steps.
    conjuncts: list[Expr]
    #: pairs of pattern indices sharing at least one variable.
    edges: list[tuple[int, int]] = field(init=False)

    def __post_init__(self) -> None:
        variables = [p.pattern.variables() for p in self.patterns]
        self.edges = [
            (i, j) for i, j in combinations(range(len(variables)), 2)
            if variables[i] & variables[j]
        ]

    @classmethod
    def build(
        cls, query: Query, patterns: list[PatternPlan]
    ) -> "PlanGraph":
        return cls(patterns, query.filter_conjuncts())

    def neighbors(self, index: int) -> set[int]:
        out = set()
        for i, j in self.edges:
            if i == index:
                out.add(j)
            elif j == index:
                out.add(i)
        return out

    def connected(self, group: set[int], candidate: int) -> bool:
        """Whether joining ``candidate`` into ``group`` avoids a cross
        product."""
        if not group:
            return True
        return bool(self.neighbors(candidate) & group)


class Step(NamedTuple):
    """One pattern scan of a compiled plan, in execution order."""

    index_order: str
    #: the constants of the pattern, a key prefix in ``index_order``: the
    #: scan's key range runs from it to :attr:`key_high`.
    key_low: Key
    #: the scan's time window ``[t1, t2)``.
    t1: int
    t2: int
    #: var name -> slot index (0-2) in the index's key order.
    var_slots: dict[str, int]
    #: slot pairs that must be equal (a variable repeated in the pattern).
    equal_slots: tuple[tuple[int, int], ...]
    #: (slot, term id) of a constant past the key prefix, compared inline
    #: by the scan (:attr:`~repro.engine.patterns.PatternPlan.key_check`).
    key_check: tuple[int, int] | None
    time_var: str | None
    #: variables shared with the steps before, sorted: the hash-join key
    #: (the synchronized join's, on the second step of one); empty for
    #: the first step and before a cross product.
    join_vars: tuple[str, ...]
    #: filter conjuncts that see final values once this step ran
    #: (:func:`conjunct_ready`); the last step also carries those over
    #: variables no step binds, which reject every row.
    filters: tuple[Expr, ...]
    #: the optimizer's estimate of the scan's rows, and of the rows after
    #: joining this step in (None without statistics; no join estimate on
    #: the first step).
    estimate: float | None
    join_estimate: float | None

    @property
    def key_high(self) -> Key:
        """Upper bound of the key range: past every key with the prefix
        (:func:`repro.mvbt.scan.prefix_range`)."""
        return self.key_low + (MAX_KEY_COMPONENT,)

    @property
    def pattern_type(self) -> str:
        """Constant positions, e.g. ``"SPT"`` (``QuadPattern``'s notation):
        the constants are the key prefix of the chosen order and the
        checked slot."""
        order = INDEX_ORDERS[self.index_order]
        constants = order[:len(self.key_low)]
        if self.key_check is not None:
            constants += (order[self.key_check[0]],)
        return "".join(
            letter.upper() for letter in "spo" if letter in constants
        ) + ("T" if self.time_var is None else "")

    def pattern_text(self, dictionary: Dictionary) -> str:
        """The quad pattern as ``str(QuadPattern)`` prints it, rebuilt from
        the key prefix and the checked slot (constants), the slots
        (variables) and the window (a constant time is a one-chronon
        window)."""
        order = INDEX_ORDERS[self.index_order]
        names = {slot: f"?{name}" for name, slot in self.var_slots.items()}
        for first, repeat in self.equal_slots:
            names[repeat] = names[first]
        constants = list(enumerate(self.key_low))
        if self.key_check is not None:
            constants.append(self.key_check)
        for slot, term_id in constants:
            names[slot] = dictionary.decode(term_id)
        s, p, o = (names[order.index(letter)] for letter in "spo")
        time = f"?{self.time_var}" if self.time_var is not None \
            else f"@{self.t1}"
        return f"{{{s} {p} {o} {time}}}"


class CompiledPlan(NamedTuple):
    """An executable, immutable base join: the engine's compiled form of a
    group's base patterns and the conjuncts that run on them."""

    steps: tuple[Step, ...]
    #: run the first two steps as one synchronized join (Section 5.2.2).
    sync: bool


def compile_plan(
    graph: PlanGraph,
    order: list[int],
    join_estimates: dict[frozenset, float] | None = None,
) -> CompiledPlan:
    """Compile ``graph`` run in ``order`` into a :class:`CompiledPlan`.

    Scan estimates come from the patterns (set by the optimizer);
    ``join_estimates`` maps the frozenset of each left-deep prefix of
    ``order`` to its estimated rows
    (:func:`repro.optimizer.cost.order_prefix_estimates`).
    """
    plans = [graph.patterns[index] for index in order]
    variables = [plan.pattern.variables() for plan in plans]
    sync = len(plans) >= 2 and synchronized_join_applicable(
        plans[0], plans[1], variables[0] & variables[1]
    )
    times = [plan.time_var for plan in plans]
    pending = list(graph.conjuncts)
    bound: set[str] = set()
    steps = []
    for rank, (plan, names) in enumerate(zip(plans, variables)):
        join_vars = tuple(sorted(bound & names))
        bound |= names
        ready: tuple[Expr, ...] = ()
        if not (sync and rank == 0):  # a synchronized pair filters once
            last = rank == len(plans) - 1
            rebound = set(times[rank + 1:])
            ready = tuple(c for c in pending
                          if last or conjunct_ready(c, bound, rebound))
            pending = [c for c in pending if c not in ready]
        window = plan.time_range
        steps.append(Step(
            index_order=plan.index_order,
            key_low=plan.key_low,
            t1=window.start,
            t2=window.end,
            var_slots=plan.var_slots,
            equal_slots=tuple(plan.equal_slots),
            key_check=plan.key_check,
            time_var=plan.time_var,
            join_vars=join_vars,
            filters=ready,
            estimate=plan.estimate,
            join_estimate=(
                join_estimates.get(frozenset(order[:rank + 1]))
                if join_estimates and rank else None
            ),
        ))
    return CompiledPlan(steps=tuple(steps), sync=sync)


class GroupPlan(NamedTuple):
    """A compiled SPARQLT group: what
    :func:`~repro.engine.executor.evaluate_group` walks."""

    #: the evaluator's base join, early conjuncts included (None: no base).
    base: object
    #: per UNION and OPTIONAL, in order: the variables it shares with the
    #: rows it joins, and its branches or group.
    unions: tuple[tuple[frozenset[str], tuple["GroupPlan", ...]], ...]
    optionals: tuple[tuple[frozenset[str], "GroupPlan"], ...]
    #: the conjuncts that run after the UNIONs and OPTIONALs.
    late: tuple[Expr, ...]


def compile_group(
    group: GroupGraphPattern,
    compile_base: Callable[[list[QuadPattern], list[Expr]], object],
) -> GroupPlan:
    """Compile ``group``; ``compile_base`` turns each base (its patterns
    and early conjuncts) into what the evaluator's
    :data:`~repro.engine.executor.JoinBase` runs.

    An early conjunct sees final values on the base join
    (:func:`conjunct_ready`): it names only base variables whose temporal
    ones no UNION or OPTIONAL pattern rebinds, or it is a restriction.
    The others are late and run last.  Each UNION branch and OPTIONAL is
    a group of its own.
    """
    conjuncts = group.filter_conjuncts()
    bound = set().union(*(p.variables() for p in group.patterns))
    # quad_patterns() lists the base first, then UNION and OPTIONAL bodies.
    rebound = time_variables(group.quad_patterns()[len(group.patterns):])
    early = [c for c in conjuncts if conjunct_ready(c, bound, rebound)]
    base = compile_base(group.patterns, early) if group.patterns else None
    unions = []
    for branches in group.unions:
        names = set().union(*(b.variables() for b in branches))
        unions.append((
            frozenset(bound & names),
            tuple(compile_group(b, compile_base) for b in branches),
        ))
        bound |= names
    optionals = []
    for optional in group.optionals:
        names = optional.variables()
        optionals.append((
            frozenset(bound & names), compile_group(optional, compile_base)
        ))
        bound |= names
    return GroupPlan(
        base=base,
        unions=tuple(unions),
        optionals=tuple(optionals),
        late=tuple(c for c in conjuncts if c not in early),
    )


class QueryPlan(NamedTuple):
    """A query text compiled whole, every base a :class:`CompiledPlan`:
    what the engine's plan cache holds."""

    select: tuple[str, ...]
    group: GroupPlan
    #: the top group's FILTER clauses as written (explain reports them).
    filter_clauses: int

    def describe(self, dictionary: Dictionary) -> str:
        """Human-readable plan summary (``RDFTX.explain``): the top
        group's base join.  Estimates are shown for plans the join-order
        search ran on, i.e. of more than one pattern."""
        base = self.group.base
        steps = base.steps if base is not None else ()
        ordered = len(steps) > 1
        lines = ["Plan:"]
        for rank, step in enumerate(steps):
            est = (
                f" est={step.estimate:.0f}"
                if ordered and step.estimate is not None else ""
            )
            lines.append(
                f"  {rank + 1}. scan {step.index_order.upper()} "
                f"{step.pattern_text(dictionary)} "
                f"type={step.pattern_type or 'full'}"
                f" time=[{step.t1},{step.t2}){est}"
            )
        if self.filter_clauses:
            lines.append(f"  filters: {self.filter_clauses}")
        return "\n".join(lines)
