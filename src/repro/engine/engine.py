"""The RDF-TX engine facade.

:class:`RDFTX` owns the four compressed MVBT indices (SPO, SOP, POS, OPS),
the dictionary, and the optional query optimizer; it compiles and runs
SPARQLT queries end to end (Figure 1's Historical Query Compiler + Execution
Engine).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..cache import LRUCache
from ..model.dictionary import Dictionary
from ..model.graph import TemporalGraph
from ..model.time import MIN_TIME, NOW, PeriodSet, format_chronon
from ..mvbt.compression import MemoTable
from ..mvbt.tree import MVBT, MVBTConfig, change_events, replay
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs import workload as _workload
from ..obs.profile import ProfileNode, QueryProfile
from ..sparqlt.ast import Query
from ..sparqlt.parser import parse
from .executor import default_order, evaluate_group, execute
from .patterns import INDEX_ORDERS, UnknownTermError, translate_pattern
from .plan import CompiledPlan, PlanGraph, compile_plan

_QUERIES = _metrics.counter("engine.queries")
_QUERY_TIMER = _metrics.REGISTRY.timer_stat("engine.query")
_PLAN_HITS = _metrics.counter("engine.plan_cache.hits")
_PLAN_MISSES = _metrics.counter("engine.plan_cache.misses")
_PLAN_EVICTIONS = _metrics.counter("engine.plan_cache.evictions")

#: Compiled plans kept per engine (prepared statements).
PLAN_CACHE_CAPACITY = 512

#: The optimizer statistics are rebuilt on the first compile after this
#: many updates (see :meth:`RDFTX.refresh_statistics`).
STATS_REFRESH_UPDATES = 256


@dataclass
class QueryResult:
    """Rows produced by a SPARQLT query.

    Term bindings are strings; temporal bindings are
    :class:`~repro.model.time.PeriodSet` rendered in the paper's compact
    ``[ts ... te]`` format by :meth:`to_table`.
    """

    variables: list[str]
    rows: list[dict] = field(default_factory=list)
    #: operator-level profile, set by ``RDFTX.query(..., profile=True)``
    #: (None when profiling was off or disabled via ``REPRO_OBS=0``).
    profile: QueryProfile | None = None
    #: revision epoch the query ran against, set by the serving layer
    #: (:meth:`repro.service.store.TemporalStore.query`); None for direct
    #: engine queries.
    revision: int | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def column(self, name: str) -> list:
        """All values of one variable."""
        return [row[name] for row in self.rows]

    def to_table(self) -> str:
        """Render the result as an aligned text table."""
        if not self.variables:
            # ASK-style / empty projection: nothing to lay out, and the
            # widths computation below must not see zero columns.
            return f"({len(self.rows)} row(s), no variables)"
        header = [f"?{name}" for name in self.variables]
        body = [
            [_render(row.get(name)) for name in self.variables]
            for row in self.rows
        ]
        widths = []
        for i in range(len(header)):
            width = len(header[i])
            for row in body:
                if len(row[i]) > width:
                    width = len(row[i])
            widths.append(width)
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def _render(value) -> str:
    if isinstance(value, PeriodSet):
        return ", ".join(str(p) for p in value)
    if value is None:
        return "-"
    return str(value)


class RDFTX:
    """The RDF-TX temporal RDF engine.

    Usage::

        engine = RDFTX.from_graph(graph)
        result = engine.query(
            "SELECT ?budget {UC budget ?budget ?t . FILTER(YEAR(?t) = 2013)}"
        )
    """

    def __init__(
        self,
        config: MVBTConfig | None = None,
        optimizer=None,
    ) -> None:
        self.config = config or MVBTConfig(block_capacity=64, weak_min=12,
                                           epsilon=12)
        self.dictionary = None
        #: the decoded-leaf memo all four indices read through: dropping
        #: the engine drops it, its intern pool and its budget together.
        self.memo = MemoTable()
        self.indexes: dict[str, MVBT] = {
            name: MVBT(self.config, self.memo) for name in INDEX_ORDERS
        }
        self.optimizer = optimizer
        #: compiled-plan cache (prepared statements).  Plans bake in
        #: dictionary ids (append-only, never reassigned) and the query
        #: text's own time windows — nothing data-dependent — so entries
        #: survive updates and are dropped only when the optimizer
        #: statistics are rebuilt (the join order could change) or a new
        #: graph is loaded.
        self._plan_cache: LRUCache = LRUCache(
            PLAN_CACHE_CAPACITY,
            hits=_PLAN_HITS,
            misses=_PLAN_MISSES,
            evictions=_PLAN_EVICTIONS,
        )
        #: updates applied since the optimizer statistics were last built.
        self._stats_dirty = 0
        #: held by the one compile that runs the automatic refresh;
        #: concurrent readers never wait on it (a non-blocking claim).
        self._refresh_claim = threading.Lock()
        #: lower bound on :attr:`horizon`.  A clustered deployment sets
        #: this on every shard so filters that resolve ``NOW`` (e.g.
        #: ``LENGTH`` over live periods) evaluate against the *cluster*
        #: horizon rather than each shard's locally-loaded maximum, which
        #: differs per shard under hash partitioning.
        self.horizon_floor = 0

    # ----------------------------------------------------------------- load

    @classmethod
    def from_graph(
        cls,
        graph: TemporalGraph,
        config: MVBTConfig | None = None,
        optimizer=None,
        compress: bool = True,
    ) -> "RDFTX":
        """Build an engine over a temporal graph (bulk load + compression).

        Mirrors the paper's construction: standard MVBTs are built first and
        their leaves are then delta-compressed (Section 7.5).
        """
        engine = cls(config=config, optimizer=optimizer)
        engine.load(graph, compress=compress)
        return engine

    def load(self, graph: TemporalGraph, compress: bool = True) -> None:
        """Bulk load all four indices from ``graph``, replacing whatever
        history the engine held.

        ``graph`` feeds the trees and the first statistics build; the
        engine keeps only its dictionary.  From here on the indices are
        the one copy of the history (:meth:`history_rows`).  The trees are
        built fresh, plain, and compressed once at the end; the engine
        swaps them in, with the dictionary, only after every replay
        succeeded.
        """
        memo = MemoTable()
        indexes = {name: MVBT(self.config, memo) for name in INDEX_ORDERS}
        with _trace.span("engine.load", triples=len(graph)) as span:
            # One change history, derived and ordered once; each index
            # replays it with the key slots permuted into its own order.
            events = change_events(
                (triple.key("spo"), triple.period.start, triple.period.end)
                for triple in graph
            )
            span.annotate(events=len(events))
            for name, tree in indexes.items():
                a, b, c = ("spo".index(slot) for slot in INDEX_ORDERS[name])
                with _trace.span("mvbt.bulk_load", index=name):
                    replay(tree, (
                        (time, kind, (key[a], key[b], key[c]))
                        for time, kind, key in events
                    ))
                if compress:  # now: at most one plain tree is resident
                    with _trace.span("mvbt.compress", index=name):
                        tree.compress()
            self.memo, self.indexes = memo, indexes
            self.dictionary = graph.dictionary
            self._stats_dirty = 0
            self._plan_cache.clear()
            if self.optimizer is not None:
                self.optimizer.rebuild(graph)

    def compress(self) -> None:
        """Delta-compress the leaf nodes of every index."""
        with _trace.span("mvbt.compress"):
            for tree in self.indexes.values():
                tree.compress()

    # -------------------------------------------------------------- updates

    def insert(self, subject: str, predicate: str, object: str,
               time: int) -> None:
        """Start a new fact at ``time`` (live until deleted).

        A rejected update (:class:`~repro.mvbt.tree.TimeOrderError`,
        :class:`~repro.mvbt.tree.DuplicateKeyError`) changes nothing: the
        time order is checked before any term is interned, a duplicate's
        terms are all interned already, and the first index refuses it
        before mutating.
        """
        self._check_update_time(time)
        ids = self._encode(subject, predicate, object)
        for name, tree in self.indexes.items():
            tree.insert(_reorder(ids, name), time)
        self._note_update()

    def delete(self, subject: str, predicate: str, object: str,
               time: int) -> None:
        """End a live fact at ``time``; ``KeyError`` (and no change at
        all, as for :meth:`insert`) when the fact is not live."""
        self._check_update_time(time)
        ids = self._lookup(subject, predicate, object)
        if ids is None:
            raise KeyError(
                f"fact not live: ({subject}, {predicate}, {object})"
            )
        for name, tree in self.indexes.items():
            tree.delete(_reorder(ids, name), time)
        self._note_update()

    def _check_update_time(self, time: int) -> None:
        """Reject update timestamps outside the concrete chronon domain or
        behind any index's watermark, before anything is touched.

        ``NOW`` is the live-interval sentinel: inserting or deleting *at* it
        would create an entry that is never alive yet counts as live (and a
        delete at ``NOW`` would decrement live counts while leaving the entry
        live), silently corrupting the indices.
        """
        if not (MIN_TIME <= time < NOW):
            raise ValueError(
                f"update time {time!r} outside [{MIN_TIME}, NOW)"
            )
        for tree in self.indexes.values():
            tree.check_time(time)

    def _note_update(self) -> None:
        """Track an applied update.

        Compiled plans deliberately survive: dictionary ids are append-only
        (a plan's baked ids stay valid) and time windows come from the
        query text, so a cached plan re-executed after a write sees the new
        data through its scans.  Only the optimizer statistics degrade —
        they are rebuilt (dropping the plan cache, since the join order may
        change) once :data:`STATS_REFRESH_UPDATES` updates accumulate.
        """
        self._stats_dirty += 1

    @property
    def statistics_dirty(self) -> int:
        """Updates applied since the statistics were last (re)built."""
        return self._stats_dirty

    def refresh_statistics(self) -> bool:
        """Rebuild the optimizer statistics from the indexed history.

        Returns ``True`` when a rebuild happened.  Called automatically at
        compile time once :data:`STATS_REFRESH_UPDATES` updates have
        accumulated; callers can also invoke it eagerly (e.g. after a bulk
        update burst, or from ``repro-tx serve`` checkpoints).
        """
        self._stats_dirty = 0
        if self.optimizer is None or self.dictionary is None:
            return False
        # Drop the old plans before the rebuild allocates its rows and
        # trees, and again after it: a plan compiled meanwhile used the
        # old statistics.
        self._plan_cache.clear()
        self.optimizer.rebuild_rows(self.dictionary, self.history_rows())
        self._plan_cache.clear()
        return True

    def _maybe_refresh_statistics(self) -> None:
        if self.optimizer is None or self._stats_dirty < STATS_REFRESH_UPDATES:
            return
        # Single flight: a reader that loses the claim compiles with the
        # current statistics, like one arriving mid-refresh.
        if not self._refresh_claim.acquire(blocking=False):
            return
        try:
            # Re-checked under the claim: a refresh may have finished
            # between the first check and the acquire.
            if self._stats_dirty >= STATS_REFRESH_UPDATES:
                # The refresh is compile-time work: the request that pays
                # for it shows engine.compile -> optimizer.rebuild in its
                # trace.
                with _trace.span("engine.compile", stats_refresh="updates"):
                    self.refresh_statistics()
        finally:
            self._refresh_claim.release()

    def _encode(self, subject: str, predicate: str, object: str):
        if self.dictionary is None:
            self.dictionary = Dictionary()
        return {
            "s": self.dictionary.encode(subject),
            "p": self.dictionary.encode(predicate),
            "o": self.dictionary.encode(object),
        }

    def _lookup(self, subject: str, predicate: str,
                object: str) -> dict | None:
        """:meth:`_encode` without interning: None when a term is unknown
        (so it cannot be part of any fact)."""
        if self.dictionary is None:
            return None
        lookup = self.dictionary.lookup
        ids = {"s": lookup(subject), "p": lookup(predicate),
               "o": lookup(object)}
        return None if None in ids.values() else ids

    # -------------------------------------------------------------- history

    def live_since(self, subject: str, predicate: str,
                   object: str) -> int | None:
        """Start chronon of the fact's live interval, or ``None`` when it
        does not currently hold: an SPO index lookup."""
        ids = self._lookup(subject, predicate, object)
        if ids is None:
            return None
        return self.indexes["spo"].live_start(_reorder(ids, "spo"))

    def history_rows(self) -> list[tuple[int, int, int, int, int]]:
        """Every ``(sid, pid, oid, start, end)`` interval of the indexed
        history, by SPO key, then start — read off the SPO tree's leaves."""
        with _trace.span("engine.history") as span:
            rows = [
                (*key, start, end)
                for key, start, end in self.indexes["spo"].history()
            ]
            rows.sort()
            span.annotate(rows=len(rows))
        return rows

    # -------------------------------------------------------------- queries

    @property
    def horizon(self) -> int:
        """One past the largest concrete chronon loaded so far.

        Never below :attr:`horizon_floor`, so clustered shards agree on
        where ``NOW`` resolves regardless of which triples they hold.
        """
        local = max(tree.current_time for tree in self.indexes.values()) + 1
        return max(self.horizon_floor, local)

    def compile(self, text: str | Query) -> CompiledPlan:
        """Parse, translate, order and compile a query.

        Compiled plans are LRU-cached per query text, so repeated queries
        pay parsing and optimization once — prepared-statement behaviour.
        Entries survive updates (see :meth:`_note_update`) and are dropped
        when the statistics are rebuilt.  Pre-parsed :class:`Query` objects
        are not cached: an object-identity key can alias once the object
        is collected, handing a stranger's plan to a new query.
        """
        self._maybe_refresh_statistics()
        if isinstance(text, str):
            cached = self._plan_cache.get(text)
            if cached is not None:
                return cached
            return self._compile_parsed(parse(text), text)
        return self._compile_parsed(text, None)

    def plan_graph(self, query: str | Query) -> tuple[PlanGraph, list[int]]:
        """Translate and order a query's base patterns: the plan graph and
        the join order this engine picks for it (nothing is cached)."""
        if isinstance(query, str):
            query = parse(query)
        conjuncts = query.filter_conjuncts()
        patterns = [
            translate_pattern(p, self.dictionary, conjuncts)
            for p in query.patterns
        ]
        graph = PlanGraph.build(query, patterns)
        if self.optimizer is not None and len(patterns) > 1:
            with _trace.span("optimizer.choose_order"):
                return graph, self.optimizer.choose_order(graph)
        return graph, default_order(graph)

    def _compile_parsed(
        self, query: Query, cache_key: str | None
    ) -> CompiledPlan:
        """Compile an already-parsed query, caching it by text.  A query
        with UNION or OPTIONAL compiles its base patterns (for
        :meth:`explain`) but is not cached: it runs through
        :func:`~repro.engine.executor.evaluate_group`."""
        with _trace.span("engine.compile"):
            graph, order = self.plan_graph(query)
            stats = getattr(self.optimizer, "statistics", None)
            join_estimates = None
            if stats is not None:
                from ..optimizer.cost import order_prefix_estimates

                join_estimates = order_prefix_estimates(graph, stats, order)
                # The statistics cache serves one optimization (Section
                # 6.3); kept past it, it would grow with every new text.
                stats.clear_cache()
            plan = compile_plan(graph, order, join_estimates)
            if cache_key is not None and query.is_simple:
                self._plan_cache.put(cache_key, plan)
            return plan

    def query(self, text: str | Query, profile: bool = False) -> QueryResult:
        """Evaluate a SPARQLT query and return its result rows.

        With ``profile=True`` (and observability enabled, see
        ``REPRO_OBS``), the result carries a
        :class:`~repro.obs.profile.QueryProfile`: per-operator timings and
        row counts, index scan counters, and — when the optimizer is on —
        estimated vs. actual cardinalities with per-pattern q-errors.
        """
        from .operators import project

        self._maybe_refresh_statistics()
        key = text if isinstance(text, str) else None
        plan: CompiledPlan | None = None
        query: Query | None = None
        if key is not None:
            # A plan-cache hit skips the parse too.
            plan = self._plan_cache.get(key)
            _trace.annotate_trace(plan_cache_hit=plan is not None)
            if plan is None:
                query = parse(key)
        else:
            query = text
        prof_root = (
            ProfileNode(op="execute")
            if profile and _metrics.ENABLED
            else None
        )
        started = time.perf_counter()
        if _metrics.ENABLED:
            _QUERIES.inc()

        if query is not None and not query.is_simple:
            # UNION / OPTIONAL groups take the group algebra (never a
            # plan-cache hit: only conjunctive plans are cached).  The
            # profile covers the top group's base join only.
            top = query.group.patterns
            rows = evaluate_group(
                query.group,
                lambda patterns, conjuncts: self._join_base(
                    patterns, conjuncts,
                    prof_root if patterns is top else None,
                ),
                self.dictionary, self.horizon,
            )
            projected = project(rows, query.select, self.dictionary)
            return self._finish_result(
                query.select, query, projected, prof_root, started, key
            )
        if plan is None:
            try:
                plan = self._compile_parsed(query, key)
            except UnknownTermError:
                # A constant term missing from the dictionary: no pattern
                # can match, so there is nothing to execute (or profile
                # beyond an empty projection).
                return self._finish_result(
                    query.select, query, [], prof_root, started, key
                )
        with _trace.span("engine.execute", patterns=len(plan.steps)):
            rows = execute(plan, self.indexes, self.dictionary,
                           self.horizon, profile=prof_root)
            projected = project(rows, plan.select, self.dictionary)
        return self._finish_result(
            plan.select, query, projected, prof_root, started, key
        )

    def _join_base(
        self, patterns: list, conjuncts: list, profile: ProfileNode | None
    ) -> list:
        """The engine's :data:`~repro.engine.executor.JoinBase`: the
        patterns compiled as a conjunctive query (not cached) and run over
        the MVBTs."""
        try:
            plan = self._compile_parsed(
                Query(select=[], patterns=patterns, filters=conjuncts), None
            )
        except UnknownTermError:
            return []
        return execute(plan, self.indexes, self.dictionary, self.horizon,
                       profile=profile)

    def _finish_result(
        self,
        select: list[str] | tuple[str, ...],
        query: Query | None,
        projected: list[dict],
        prof_root: ProfileNode | None,
        started: float,
        text: str | None,
    ) -> QueryResult:
        """The result of a query that ran; ``query`` is its parse tree
        when one was made (a plan-cache hit has only ``text``)."""
        elapsed = time.perf_counter() - started
        if _metrics.ENABLED:
            _QUERY_TIMER.observe(elapsed)
        query_profile = None
        if prof_root is not None:
            root = ProfileNode(
                op="project",
                detail=", ".join(f"?{name}" for name in select),
                actual_rows=len(projected),
                children=prof_root.children,
            )
            query_profile = QueryProfile(
                root=root, total_ms=elapsed * 1000.0
            )
        if _metrics.ENABLED:
            _workload.WORKLOAD.record_query(
                query, text, elapsed * 1000.0, rows=len(projected),
                cache_hit=False, trace_id=_trace.current_trace_id(),
            )
        return QueryResult(
            variables=list(select), rows=projected,
            profile=query_profile,
        )

    def explain(self, text: str | Query) -> str:
        """The chosen plan, as text."""
        return self.compile(text).describe(self.dictionary)

    # --------------------------------------------------- convenience API

    def when(self, subject: str, predicate: str, object: str) -> PeriodSet:
        """The validity of one fact (Example 1's "when" query).

        This is the by-example access pattern of the paper's end-user
        interfaces [6, 15]: fill in an infobox row, get its history.
        """
        result = self.query(
            Query(
                select=["t"],
                patterns=[_quad(subject, predicate, object)],
            )
        )
        if not result:
            return PeriodSet()
        out = PeriodSet()
        for row in result:
            out = out.union(row["t"])
        return out

    def snapshot(self, subject: str, chronon: int) -> dict[str, list[str]]:
        """The subject's property values on one day (flash-back browsing)."""
        from ..sparqlt.ast import TermConst, TimeConst, Var

        pattern = QuadPatternFactory.snapshot(subject, chronon)
        result = self.query(Query(select=["p", "o"], patterns=[pattern]))
        out: dict[str, list[str]] = {}
        for row in result:
            out.setdefault(row["p"], []).append(row["o"])
        return out

    def history(self, subject: str,
                predicate: str | None = None) -> list[tuple]:
        """The full timeline of a subject: (predicate, object, periods)."""
        pattern = QuadPatternFactory.history(subject, predicate)
        select = ["p", "o", "t"] if predicate is None else ["o", "t"]
        result = self.query(Query(select=select, patterns=[pattern]))
        rows = []
        for row in result:
            rows.append(
                (
                    row.get("p", predicate),
                    row["o"],
                    row["t"],
                )
            )
        rows.sort(key=lambda r: (r[0], r[2].first()))
        return rows

    # ---------------------------------------------------------------- admin

    def sizeof(self) -> int:
        """Storage-layout bytes of all indices plus the dictionary."""
        total = sum(tree.sizeof() for tree in self.indexes.values())
        if self.dictionary is not None:
            total += self.dictionary.sizeof()
        return total

    def check_invariants(self) -> None:
        for tree in self.indexes.values():
            tree.check_invariants()


def _reorder(ids: dict, order_name: str):
    return tuple(ids[letter] for letter in INDEX_ORDERS[order_name])


def _quad(subject: str, predicate: str, object: str):
    from ..sparqlt.ast import QuadPattern, TermConst, Var

    return QuadPattern(
        TermConst(subject), TermConst(predicate), TermConst(object), Var("t")
    )


class QuadPatternFactory:
    """Builders for the by-example convenience queries."""

    @staticmethod
    def snapshot(subject: str, chronon: int):
        from ..sparqlt.ast import QuadPattern, TermConst, TimeConst, Var

        return QuadPattern(
            TermConst(subject), Var("p"), Var("o"), TimeConst(chronon)
        )

    @staticmethod
    def history(subject: str, predicate: str | None):
        from ..sparqlt.ast import QuadPattern, TermConst, Var

        return QuadPattern(
            TermConst(subject),
            TermConst(predicate) if predicate is not None else Var("p"),
            Var("o"),
            Var("t"),
        )
