"""The RDF-TX engine facade.

:class:`RDFTX` owns the three compressed MVBT indices (SPO, POS, OPS),
the dictionary, and the optional query optimizer; it compiles and runs
SPARQLT queries end to end (Figure 1's Historical Query Compiler + Execution
Engine).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter

from ..cache import LRUCache
from ..model.dictionary import Dictionary
from ..model.graph import TemporalGraph
from ..model.time import MIN_TIME, NOW, PeriodSet
from ..mvbt.compression import MemoTable
from ..mvbt.scan import prefix_range, recorded
from ..mvbt.tree import (MVBT, DuplicateKeyError, MVBTConfig, TimeOrderError,
                         change_events, replay)
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs import workload as _workload
from ..obs.profile import ProfileNode, QueryProfile
from ..sparqlt.ast import QuadPattern, Query, TermConst, TimeConst, Var
from ..sparqlt.parser import parse
from .executor import default_order, evaluate_group, execute
from .operators import project
from .patterns import INDEX_ORDERS, UnknownTermError, translate_pattern
from .plan import (
    CompiledPlan,
    PlanGraph,
    QueryPlan,
    compile_group,
    compile_plan,
)

_QUERIES = _metrics.counter("engine.queries")
_QUERY_MS = _metrics.histogram("engine.query_ms")
_PLAN_HITS = _metrics.counter("engine.plan_cache.hits")
_PLAN_MISSES = _metrics.counter("engine.plan_cache.misses")
_PLAN_EVICTIONS = _metrics.counter("engine.plan_cache.evictions")

#: Compiled plans kept per engine (prepared statements).
PLAN_CACHE_CAPACITY = 512

#: The tree shape of an engine built without a config, and of the bench
#: engines.  Chosen by a sweep of (d, epsilon) at b = 64 (EXPERIMENTS.md,
#: "MVBT split parameters by measurement"): more room after a split means
#: fewer version-split copies, 4-11 % fewer index bytes per triple than
#: (12, 12) and fewer calls per write, for more dead history per live leaf
#: for a scan to pass over.  The wider (4, 19) saves more bytes but leaves
#: too few copies to share the decoded-leaf memo's interned keys: its
#: resident form grows past 120 B per record.
DEFAULT_CONFIG = MVBTConfig(block_capacity=64, weak_min=8, epsilon=16)


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
        self.config = config or DEFAULT_CONFIG
        self.dictionary = None
        #: the decoded-leaf memo all three indices read through: dropping
        #: the engine drops it, its intern pool and its budget together.
        self.memo = MemoTable()
        self.indexes: dict[str, MVBT] = {
            name: MVBT(self.config, self.memo) for name in INDEX_ORDERS
        }
        self.optimizer = optimizer
        #: compiled-plan cache (prepared statements).  Plans bake in
        #: dictionary ids (append-only, never reassigned) and the query
        #: text's own time windows — nothing data-dependent — so entries
        #: survive updates and are dropped only when a new graph is loaded.
        self._plan_cache: LRUCache = LRUCache(
            PLAN_CACHE_CAPACITY,
            hits=_PLAN_HITS,
            misses=_PLAN_MISSES,
            evictions=_PLAN_EVICTIONS,
        )
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
        """Bulk load all three indices from ``graph``, replacing whatever
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
                ((sid, pid, oid), start, end)
                for sid, pid, oid, start, end in graph.encoded_rows()
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
        """Start a new fact at ``time`` (live until deleted):
        :meth:`check_update`, which refuses a bad update before anything
        changes, then :meth:`apply_update`."""
        ids = self.check_update("insert", subject, predicate, object, time)
        self.apply_update("insert", subject, predicate, object, time, ids)

    def delete(self, subject: str, predicate: str, object: str,
               time: int) -> None:
        """End a live fact at ``time``: :meth:`check_update`, then
        :meth:`apply_update`.  A delete at the fact's own start chronon
        ends an entry that was never visible: the fact leaves
        :meth:`history_rows` and every answer."""
        ids = self.check_update("delete", subject, predicate, object, time)
        self.apply_update("delete", subject, predicate, object, time, ids)

    def check_update(self, op: str, subject: str, predicate: str,
                     object: str, time: int) -> tuple[int, int, int] | None:
        """The one write check: refuse an update before anything changes.

        ``ValueError`` for a time outside the concrete chronon domain
        (``NOW`` is the live-interval sentinel: an entry started or ended
        at it would count as live and never be) or an unknown ``op``;
        :class:`~repro.mvbt.tree.TimeOrderError` behind the watermark the
        three trees share; :class:`~repro.mvbt.tree.DuplicateKeyError` for
        an insert of a live fact and ``KeyError`` for a delete of one that
        is not live, by one probe of the SPO tree.  Nothing is interned.
        Returns the fact's ``(sid, pid, oid)`` for :meth:`apply_update`,
        or ``None`` when an insert names a term not known yet.
        """
        if not (MIN_TIME <= time < NOW):
            raise ValueError(
                f"update time {time!r} outside [{MIN_TIME}, NOW)"
            )
        spo = self.indexes["spo"]
        if time < spo.current_time:
            raise TimeOrderError(
                f"update at {time} before watermark {spo.current_time}"
            )
        ids = self._lookup(subject, predicate, object)
        live = ids is not None and spo.is_live(ids)
        if op == "insert":
            if live:
                raise DuplicateKeyError(
                    f"fact already live: ({subject}, {predicate}, {object})"
                )
        elif op != "delete":
            raise ValueError(f"unknown operation: {op!r}")
        elif not live:
            raise KeyError(
                f"fact not live: ({subject}, {predicate}, {object})"
            )
        return ids

    def apply_update(self, op: str, subject: str, predicate: str,
                     object: str, time: int,
                     ids: tuple[int, int, int] | None) -> None:
        """Apply an update :meth:`check_update` passed, with the ids it
        returned: the three trees take it, an insert blind
        (:meth:`MVBT.append <repro.mvbt.tree.MVBT.append>`, no second
        probe), then the optimizer statistics record it
        (:meth:`TemporalHistogram.insert
        <repro.mvsbt.histogram.TemporalHistogram.insert>`)."""
        statistics = getattr(self.optimizer, "statistics", None)
        histogram = None if statistics is None else statistics.histogram
        if op == "insert":
            if ids is None:
                ids = self._encode(subject, predicate, object)
            for name, tree in self.indexes.items():
                tree.append(_KEY_ORDER[name](ids), time)
            if histogram is not None:
                term_bytes = sum(len(term.encode())
                                 for term in (subject, predicate, object))
                histogram.insert(*ids, time, term_bytes, self)
        else:
            for name, tree in self.indexes.items():
                tree.delete(_KEY_ORDER[name](ids), time)
            if histogram is not None:
                histogram.delete(ids[0], ids[1], time, self)

    def live_predicates(self, sid: int) -> list[int]:
        """The predicate id of each live fact of subject ``sid``: the SPO
        tree's live leaves over the subject's prefix (a statistics probe)."""
        low, high = prefix_range((sid,))
        return [key[1] for key in self.indexes["spo"].live_keys(low, high)]

    def pair_recorded(self, sid: int, pid: int, oid: int) -> bool:
        """Whether a fact with predicate ``pid`` and object ``oid`` other
        than the live ``(sid, pid, oid)`` was ever recorded: the POS tree's
        leaves over that prefix, newest first, until one holds such a fact
        (a statistics probe)."""
        low, high = prefix_range((pid, oid))
        return recorded(self.indexes["pos"], low, high, (pid, oid, sid))

    def refresh_statistics(self) -> bool:
        """Rebuild the optimizer statistics from the indexed history.

        Returns ``True`` when a rebuild happened.  Writes keep the
        statistics current, so this is the explicit full rebuild: a
        snapshot that carries none restores through it, and a cluster's
        ``refresh_stats`` op calls it.  Compiled plans are kept.
        """
        if self.optimizer is None or self.dictionary is None:
            return False
        self.optimizer.rebuild_rows(self.dictionary, self.history_rows())
        return True

    def _encode(self, subject: str, predicate: str,
                object: str) -> tuple[int, int, int]:
        if self.dictionary is None:
            self.dictionary = Dictionary()
        encode = self.dictionary.encode
        return encode(subject), encode(predicate), encode(object)

    def _lookup(self, subject: str, predicate: str,
                object: str) -> tuple[int, int, int] | None:
        """:meth:`_encode` without interning: None when a term is unknown
        (so it cannot be part of any fact)."""
        if self.dictionary is None:
            return None
        lookup = self.dictionary.lookup
        ids = lookup(subject), lookup(predicate), lookup(object)
        return None if None in ids else ids

    # -------------------------------------------------------------- history

    def live_since(self, subject: str, predicate: str,
                   object: str) -> int | None:
        """Start chronon of the fact's live interval, or ``None`` when it
        does not currently hold: an SPO index lookup."""
        ids = self._lookup(subject, predicate, object)
        if ids is None:
            return None
        return self.indexes["spo"].live_start(ids)

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

    def compile(self, text: str | Query) -> QueryPlan:
        """Parse, translate, order and compile a query, UNIONs and
        OPTIONALs included.

        Compiled plans are LRU-cached per query text, so repeated queries
        pay parsing and optimization once — prepared-statement behaviour.
        Entries survive updates and statistics rebuilds: only
        :meth:`load` drops them.  Pre-parsed :class:`Query` objects
        are not cached: an object-identity key can alias once the object
        is collected, handing a stranger's plan to a new query.  Raises
        :class:`~repro.engine.patterns.UnknownTermError` when a pattern
        names a term the dictionary does not know (:meth:`query` answers
        such a text; it is not cached).
        """
        plan, _, unknown = self._plan(text)
        if unknown is not None:
            raise unknown
        return plan

    def plan_graph(self, query: str | Query) -> tuple[PlanGraph, list[int]]:
        """Translate and order a query's base patterns: the plan graph and
        the join order this engine picks for it (nothing is cached)."""
        if isinstance(query, str):
            query = parse(query)
        return self._plan_graph(query.patterns, query.filter_conjuncts())

    def _plan_graph(
        self, patterns: list, conjuncts: list
    ) -> tuple[PlanGraph, list[int]]:
        graph = PlanGraph(
            [translate_pattern(p, self.dictionary, conjuncts)
             for p in patterns],
            conjuncts,
        )
        if self.optimizer is not None and len(patterns) > 1:
            with _trace.span("optimizer.choose_order"):
                return graph, self.optimizer.choose_order(graph)
        return graph, default_order(graph)

    def _plan(
        self, text: str | Query
    ) -> tuple[QueryPlan, Query | None, UnknownTermError | None]:
        """The plan of a query, cached or compiled (and cached by text);
        the parse tree, when one was made; and the first unknown term a
        pattern named.  A base naming a term the dictionary does not know
        compiles to a plan of no steps, and the text is not cached: an
        insert may introduce the term."""
        if isinstance(text, str):
            # A plan-cache hit skips the parse too.
            plan = self._plan_cache.get(text)
            _trace.annotate_trace(plan_cache_hit=plan is not None)
            if plan is not None:
                return plan, None, None
            query = parse(text)
        else:
            query = text
        unknown: list[UnknownTermError] = []

        def compile_base(patterns: list, conjuncts: list) -> CompiledPlan:
            try:
                graph, order = self._plan_graph(patterns, conjuncts)
            except UnknownTermError as error:
                unknown.append(error)
                return CompiledPlan(steps=(), sync=False)
            stats = getattr(self.optimizer, "statistics", None)
            join_estimates = None
            if stats is not None:
                from ..optimizer.cost import order_prefix_estimates

                join_estimates = order_prefix_estimates(graph, stats, order)
                # The statistics cache serves one optimization (Section
                # 6.3); kept past it, it would grow with every new text.
                stats.clear_cache()
            return compile_plan(graph, order, join_estimates)

        with _trace.span("engine.compile"):
            plan = QueryPlan(
                select=tuple(query.select),
                group=compile_group(query.group, compile_base),
                filter_clauses=len(query.filters),
            )
        if isinstance(text, str) and not unknown:
            self._plan_cache.put(text, plan)
        return plan, query, unknown[0] if unknown else None

    def query(self, text: str | Query, profile: bool = False) -> QueryResult:
        """Evaluate a SPARQLT query and return its result rows.

        With ``profile=True`` (and observability enabled, see
        ``REPRO_OBS``), the result carries a
        :class:`~repro.obs.profile.QueryProfile` of the top group's base
        join: per-operator timings and row counts, index scan counters,
        and — when the optimizer is on — estimated vs. actual
        cardinalities with per-pattern q-errors.
        """
        prof_root = (
            ProfileNode(op="execute")
            if profile and _metrics.ENABLED
            else None
        )
        started = time.perf_counter()
        if _metrics.ENABLED:
            _QUERIES.inc()
        plan, query, _ = self._plan(text)
        top = plan.group.base
        horizon = self.horizon

        def join_base(base: CompiledPlan) -> list:
            return execute(base, self.indexes, self.dictionary, horizon,
                           profile=prof_root if base is top else None)

        with _trace.span("engine.execute",
                         patterns=0 if top is None else len(top.steps)):
            rows = evaluate_group(plan.group, join_base, self.dictionary,
                                  horizon)
            projected = project(rows, plan.select, self.dictionary)
        elapsed = time.perf_counter() - started
        query_profile = None
        if prof_root is not None:
            root = ProfileNode(
                op="project",
                detail=", ".join(f"?{name}" for name in plan.select),
                actual_rows=len(projected),
                children=prof_root.children,
            )
            query_profile = QueryProfile(
                root=root, total_ms=elapsed * 1000.0
            )
        if _metrics.ENABLED:
            _QUERY_MS.observe(elapsed * 1000.0)
            # ``query`` is the parse tree when one was made (a plan-cache
            # hit has only the text).
            _workload.WORKLOAD.record_query(
                query, text if isinstance(text, str) else None,
                elapsed * 1000.0, rows=len(projected),
                cache_hit=False, trace_id=_trace.current_trace_id(),
            )
        return QueryResult(
            variables=list(plan.select), rows=projected,
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
        out = PeriodSet()
        for row in self.query(
            _by_example(["t"], subject, predicate, object, Var("t"))
        ):
            out = out.union(row["t"])
        return out

    def snapshot(self, subject: str, chronon: int) -> dict[str, list[str]]:
        """The subject's property values on one day (flash-back browsing)."""
        out: dict[str, list[str]] = {}
        for row in self.query(_by_example(["p", "o"], subject, None, None,
                                          TimeConst(chronon))):
            out.setdefault(row["p"], []).append(row["o"])
        return out

    def history(self, subject: str,
                predicate: str | None = None) -> list[tuple]:
        """The full timeline of a subject: (predicate, object, periods)."""
        select = ["p", "o", "t"] if predicate is None else ["o", "t"]
        result = self.query(
            _by_example(select, subject, predicate, None, Var("t"))
        )
        rows = [(row.get("p", predicate), row["o"], row["t"])
                for row in result]
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


#: ``(sid, pid, oid)`` to each tree's key order.
_KEY_ORDER = {
    name: itemgetter(*("spo".index(slot) for slot in order))
    for name, order in INDEX_ORDERS.items()
}


def _by_example(select: list[str], subject: str, predicate: str | None,
                object: str | None, at) -> Query:
    """A one-pattern query; a ``None`` term is the variable ?p or ?o."""
    terms = [
        Var(name) if value is None else TermConst(value)
        for name, value in zip("spo", (subject, predicate, object))
    ]
    return Query(select=select, patterns=[QuadPattern(*terms, at)])
