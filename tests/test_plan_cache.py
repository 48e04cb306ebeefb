"""The plan cache holds compiled plans: small, parse-tree-free, immutable.

A cached entry is a :class:`~repro.engine.plan.QueryPlan`: a text compiled
whole, UNIONs and OPTIONALs included, each base a
:class:`~repro.engine.plan.CompiledPlan` — the scans in execution order
with their join variables, filter placement, synchronized-join decision
and estimates worked out at compile time.  These tests pin what it may
reach and how large it is, that running it (profiled or not) leaves it as
compiled, that ``explain`` and ``--analyze`` print what they printed when
the cache held parse trees, that a text naming an unknown term is never
cached, and that a hit answers exactly what a miss does.
"""

from __future__ import annotations

import copy
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RDFTX, Optimizer
from repro.engine import UnknownTermError
from repro.engine.plan import QueryPlan
from repro.model import TemporalGraph
from repro.model.time import NOW, date_to_chronon
from repro.obs import metrics, trace
from repro.sparqlt.ast import GroupGraphPattern, QuadPattern, Query
from repro.sparqlt.lexer import Token

HERE = Path(__file__).parent
BENCHMARKS = HERE.parent / "benchmarks"


@pytest.fixture(scope="module")
def heap_by_file():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import heap_by_file

        heap_by_file.use_suite()
        yield heap_by_file
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_entries_hold_no_parse_tree_and_few_objects(heap_by_file):
    """Over the first 512 distinct texts of the served mix, an entry
    reaches no query or pattern parse tree and averages at most 25
    objects (44.7 by this census when the cache held ``(PlanGraph,
    order)``)."""
    engine = heap_by_file.serve_plan_cache(seed=7, smoke=False)
    plans = engine._plan_cache.values()
    assert len(plans) == 512
    assert all(isinstance(plan, QueryPlan) for plan in plans)
    _, objects, kinds = heap_by_file.reach(plans)
    for banned in (Query, GroupGraphPattern, QuadPattern, Token):
        assert banned.__name__ not in kinds
    assert objects / len(plans) <= 25


def engine_over(facts) -> RDFTX:
    """An optimizer engine over ``(s, p, o, start, end)`` facts, the first
    interval of each fact kept."""
    graph = TemporalGraph()
    seen = set()
    for s, p, o, start, end in facts:
        if (s, p, o) not in seen:
            seen.add((s, p, o))
            graph.add(s, p, o, start, end)
    return RDFTX.from_graph(graph, optimizer=Optimizer())


def chronon(year: int, month: int) -> int:
    return date_to_chronon(datetime.date(year, month, 1))


def test_profiled_and_sampled_hits_leave_the_entry_as_compiled():
    """A profiled hit and a trace-sampled one (a request the server
    chose to trace) run the cached plan without changing it."""
    if not metrics.ENABLED:
        pytest.skip("profiling is off (REPRO_OBS=0)")
    engine = engine_over(
        fact
        for n in range(40)
        for start in [chronon(2010 + n % 4, 1 + n % 12)]
        for fact in [
            (f"city{n % 7}", "population", str(1000 + n), start,
             start + 200),
            (f"city{n % 7}", "mayor", f"m{n % 5}", start, NOW),
        ]
    )
    texts = [
        "SELECT ?p {city1 population ?p ?t}",
        "SELECT ?s ?p ?m {?s population ?p ?t . ?s mayor ?m ?t}",
        "SELECT ?s ?p {?s population ?p ?t . city2 mayor ?m ?t . "
        "FILTER(YEAR(?t) = 2011)}",
    ]
    for text in texts:
        engine.query(text)  # compiles and caches
        cached = engine._plan_cache.get(text)
        compiled = copy.deepcopy(cached)
        assert engine.query(text, profile=True).profile is not None
        sampled = trace.TraceBuffer()
        with trace.start_trace("request", sampled):
            assert engine.query(text).profile is None
        (tr,) = sampled.recent()
        assert "engine.execute" in tr.span_names()
        assert engine._plan_cache.get(text) is cached
        assert cached == compiled


def test_explain_and_profile_match_the_parse_tree_cache():
    """``explain`` and ``query(profile=True)`` print what they printed when
    the cache held parse trees (``tests/plan_pins.py``)."""
    golden = json.loads((HERE / "golden" / "plan_pins.json").read_text())
    if golden["hash_algorithm"] != sys.hash_info.algorithm:
        pytest.skip("pins were recorded under another str hash algorithm")
    fresh = subprocess.run(
        [sys.executable, str(HERE / "plan_pins.py")],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(fresh.stdout) == golden


GROUP_TEXTS = [
    "SELECT ?s ?v { {?s population ?v ?t} UNION {?s mayor ?v ?t} }",
    "SELECT ?s ?p ?m {?s population ?p ?t . OPTIONAL {?s mayor ?m ?t}}",
]


def city_engine() -> RDFTX:
    return engine_over(
        (f"city{n % 7}", predicate, f"{predicate}{n % 5}",
         chronon(2010 + n % 4, 1 + n % 12), NOW)
        for n in range(40) for predicate in ("population", "mayor")
    )


@pytest.mark.parametrize("text", GROUP_TEXTS)
def test_a_group_text_compiles_once(text):
    """A UNION or OPTIONAL text is cached on its first run, and its
    second run is a hit that compiles nothing."""
    if not metrics.ENABLED:
        pytest.skip("counters and traces are off (REPRO_OBS=0)")
    engine = city_engine()
    hits = metrics.counter("engine.plan_cache.hits")
    first = engine.query(text)
    assert text in engine._plan_cache
    before = hits.value
    traced = trace.TraceBuffer()
    with trace.start_trace("request", traced):
        second = engine.query(text)
    assert hits.value - before == 1
    (tr,) = traced.recent()
    assert "engine.compile" not in tr.span_names()
    assert second.rows == first.rows and first.rows


def test_a_branch_naming_an_unknown_term_is_not_cached():
    """The other branch still answers; an insert that introduces the term
    shows on the next run, which then caches the text."""
    engine = city_engine()
    text = ("SELECT ?s ?v { {city1 population ?v ?t} UNION "
            "{?s founder ?v ?t} }")
    before = engine.query(text)
    assert before.rows and all(row.get("s") is None for row in before.rows)
    assert text not in engine._plan_cache
    with pytest.raises(UnknownTermError):
        engine.compile(text)
    engine.insert("city3", "founder", "ada", engine.horizon)
    after = engine.query(text)
    assert after.rows == before.rows + [{"s": "city3", "v": "ada"}]
    assert text in engine._plan_cache


SUBJECTS = ["a", "b", "c"]
PREDICATES = ["p", "q", "r"]
OBJECTS = ["x", "y", "z"]
YEARS = [2010, 2011, 2012, 2013]


@pytest.fixture(scope="module")
def small_engine():
    return engine_over(
        (SUBJECTS[n % 3], PREDICATES[n // 3 % 3],
         OBJECTS[n // 9 % 3] if n % 2 else f"v{n % 8}",
         chronon(YEARS[n % 4], 1 + n % 12),
         NOW if n % 5 == 0 else chronon(YEARS[n % 4], 1 + n % 12)
         + 30 + 17 * (n % 9))
        for n in range(60)
    )


def _term(choices: list[str], variables: list[str]):
    return st.sampled_from(choices + [f"?{v}" for v in variables])


@st.composite
def conjunctive_queries(draw) -> str:
    """A conjunctive text, its patterns sometimes split in two as
    ``{A} UNION {B}`` or ``A . OPTIONAL {B}``."""
    patterns = []
    for _ in range(draw(st.integers(1, 3))):
        time = draw(st.sampled_from(
            ["?t", "?t", "?t2", f"{draw(st.sampled_from(YEARS))}-06-01"]))
        patterns.append(" ".join((
            draw(_term(SUBJECTS, ["s", "s2"])),
            draw(_term(PREDICATES, ["p"])),
            draw(_term(OBJECTS, ["o", "o2", "s"])),
            time,
        )))
    body = " . ".join(patterns)
    variables = sorted({
        word[1:] for word in body.split() if word.startswith("?")
    })
    if len(patterns) > 1:
        split = draw(st.integers(1, len(patterns) - 1))
        a, b = " . ".join(patterns[:split]), " . ".join(patterns[split:])
        body = draw(st.sampled_from(
            [body, f"{{{a}}} UNION {{{b}}}", f"{a} . OPTIONAL {{{b}}}"]))
    if "t" in variables:
        body += draw(st.sampled_from([
            "",
            f" . FILTER(YEAR(?t) = {draw(st.sampled_from(YEARS))})",
            " . FILTER(?t <= 2012-01-01)",
            " . FILTER(LENGTH(?t) > 40)",
        ]))
    select = " ".join(f"?{v}" for v in variables) or "?t"
    return f"SELECT {select} {{{body}}}"


@settings(max_examples=80, deadline=None)
@given(text=conjunctive_queries())
def test_hit_answers_what_the_miss_answered(small_engine, text):
    small_engine._plan_cache.clear()
    miss = small_engine.query(text)
    assert text in small_engine._plan_cache
    hit = small_engine.query(text)
    profiled = small_engine.query(text, profile=True)
    assert hit.rows == miss.rows
    assert profiled.rows == miss.rows
    assert hit.variables == miss.variables
