"""Shared machinery for the comparison systems (paper Section 7.1.2).

Each baseline is an honest reimplementation of the *strategy* the paper
measured — not of the named product.  They all answer the same SPARQLT
queries over the same :class:`~repro.model.graph.TemporalGraph`, differing
exactly where the paper's analysis locates the performance differences:

* how temporal RDF triples are stored and indexed,
* whether a pattern + temporal constraint needs one index operation (RDF-TX)
  or an index scan followed by residual filtering and extra joins,
* how much storage the scheme needs (Figure 8(b)).

The rest of query evaluation is shared so measured differences come from
the storage layer, mirroring how all systems in the paper run equivalent
rewritten queries: parsing, the engine's group algebra
(:func:`~repro.engine.executor.evaluate_group`, which also gives every
baseline UNION and OPTIONAL), filter semantics, hash joins and projection.
A baseline supplies only :meth:`TemporalBaseline.match_pattern`; its base
join runs those scans in a constants-first order and then applies the
base's early conjuncts, once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator

from ..engine.engine import QueryResult
from ..engine.executor import evaluate_group, join_in_order
from ..engine.operators import Row, apply_filters, project
from ..engine.patterns import _window_from_filters
from ..engine.plan import compile_group
from ..model.dictionary import is_inline
from ..model.graph import TemporalGraph
from ..model.time import NOW, Period
from ..sparqlt.ast import Expr, Query, QuadPattern, TimeConst, Var
from ..sparqlt.parser import parse


class TemporalBaseline(ABC):
    """A comparison system evaluating SPARQLT queries over its own storage."""

    #: Display name used by benchmark tables.
    name = "baseline"

    def __init__(self) -> None:
        self.dictionary = None
        self._horizon = 1

    @classmethod
    def from_graph(cls, graph: TemporalGraph, **kwargs) -> "TemporalBaseline":
        system = cls(**kwargs)
        system.load(graph)
        return system

    def load(self, graph: TemporalGraph) -> None:
        self.dictionary = graph.dictionary
        horizon = 1
        rows = graph.encoded_rows()
        for _, _, _, start, end in rows:
            horizon = max(horizon, start + 1)
            if end != NOW:
                horizon = max(horizon, end + 1)
        self._horizon = horizon
        # A baseline keeps no term in its ids: the integers RDF-TX inlines
        # sit in its dictionary with every other term.
        decode = graph.dictionary.decode
        self._inline_term_bytes = sum(
            len(decode(term).encode()) + 24
            for term in {term for row in rows for term in row[:3]}
            if is_inline(term)
        )
        self._build(graph)

    def term_bytes(self) -> int:
        """Dictionary bytes for every distinct term the system stores, in
        :meth:`Dictionary.sizeof <repro.model.dictionary.Dictionary.sizeof>`'s
        layout (inline integers included)."""
        if self.dictionary is None:
            return 0
        return self.dictionary.sizeof() + self._inline_term_bytes

    @abstractmethod
    def _build(self, graph: TemporalGraph) -> None:
        """Build the system's storage from the graph."""

    @abstractmethod
    def match_pattern(
        self, pattern: QuadPattern, window: Period
    ) -> Iterator[Row]:
        """Single-pattern matching against this system's storage.

        Yields rows binding the pattern's variables (term ids as ints, the
        temporal variable as a PeriodSet restricted to ``window``).
        """

    @abstractmethod
    def sizeof(self) -> int:
        """Storage-layout size in bytes (Figure 8(b))."""

    # ------------------------------------------------------------ evaluation

    def query(self, text: str | Query) -> QueryResult:
        """Parse and evaluate a SPARQLT query."""
        query = parse(text) if isinstance(text, str) else text
        rows = evaluate_group(
            compile_group(query.group, lambda *base: base),
            self._join_base, self.dictionary, self._horizon,
        )
        return QueryResult(
            variables=list(query.select),
            rows=project(rows, query.select, self.dictionary),
        )

    def _join_base(
        self, base: tuple[list[QuadPattern], list[Expr]]
    ) -> list[Row]:
        patterns, conjuncts = base
        # Join order: constants-first heuristic, like the paper's baselines
        # running through their own (non-temporal) optimizers.
        ordered = sorted(patterns, key=lambda p: -len(p.constant_positions()))
        rows = join_in_order(
            (p.variables(), self.match_pattern(
                p, self._pattern_window(p, conjuncts)))
            for p in ordered
        )
        return list(apply_filters(rows, conjuncts, self.dictionary,
                                  self._horizon)) if conjuncts else rows

    def _pattern_window(self, pattern: QuadPattern, conjuncts) -> Period:
        if isinstance(pattern.time, TimeConst):
            return Period.point(pattern.time.chronon)
        return _window_from_filters(pattern.time.name, conjuncts)

    # --------------------------------------------------------------- helpers

    @staticmethod
    def bind(pattern: QuadPattern, sid: int, pid: int, oid: int) -> Row | None:
        """Bind a concrete (s, p, o) to the pattern's variables, checking
        repeated variables; ``None`` when inconsistent."""
        row: Row = {}
        for term, value in (
            (pattern.subject, sid),
            (pattern.predicate, pid),
            (pattern.object, oid),
        ):
            if isinstance(term, Var):
                if term.name in row and row[term.name] != value:
                    return None
                row[term.name] = value
        return row

    def rows_from_records(
        self,
        pattern: QuadPattern,
        records: Iterable[tuple[int, int, int, Period]],
        window: Period,
    ) -> Iterator[Row]:
        """Group matching interval records into result rows: one row per
        (s, p, o) binding with the coalesced validity restricted to the
        window (the shared result shape of single-pattern matching)."""
        from collections import defaultdict

        from ..model.time import PeriodSet

        groups: dict[tuple, list[Period]] = defaultdict(list)
        for sid, pid, oid, period in records:
            groups[(sid, pid, oid)].append(period)
        for (sid, pid, oid), parts in groups.items():
            validity = PeriodSet(parts).restrict(window)
            if validity.is_empty:
                continue
            row = self.bind(pattern, sid, pid, oid)
            if row is None:
                continue
            if isinstance(pattern.time, Var):
                row[pattern.time.name] = validity
            yield row

    def term_ids(self, pattern: QuadPattern) -> tuple:
        """(sid, pid, oid) with None for variables; -1 for unknown terms."""
        out = []
        for term in (pattern.subject, pattern.predicate, pattern.object):
            if isinstance(term, Var):
                out.append(None)
            else:
                found = self.dictionary.lookup(term.value)
                out.append(-1 if found is None else found)
        return tuple(out)
