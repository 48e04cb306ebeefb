"""Every evaluator answers SPARQLT the same way.

The engine (with and without the optimizer), the six baselines and 1- and
2-shard clusters share one group algebra and one filter rule set, so each
query below must give every system the same sorted rows, or make every
system raise the same exception class.  The expected answers are pinned by
hand; the shapes are the ones where evaluators have drifted apart: UNION
and OPTIONAL, a filter over an OPTIONAL variable, ``LENGTH``/``TSTART`` over
a temporal variable that a later join still narrows, a filter variable no
pattern binds, and a filter that is a type error on every row.  The
engines answer each text twice, the second time from the plan cache.

Every early conjunct (one that sees final values on a group's base join)
runs once: the ``engine.filter_rows_in`` tests below count its rows.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines import ALL_BASELINES, Ng4jBaseline
from repro.cluster import ClusterStore
from repro.engine import RDFTX
from repro.io import load_graph
from repro.model import TemporalGraph
from repro.model.time import encode_value
from repro.obs import metrics
from repro.optimizer import Optimizer

LIVE = None  # an open-ended period, as encode_value writes it


def _graph() -> TemporalGraph:
    g = TemporalGraph()
    g.add("x", "p1", "alpha", 1000, 2000)
    g.add("x", "p2", "beta", 1900, 6000)
    g.add("y", "p1", "alpha", 3000, 4000)
    g.add("y", "p2", "gamma", 3500, 5000)
    g.add("z", "p2", "alpha", 1500, 2500)
    g.add("uc", "president", "yudof", 1000, 2000)
    g.add("uc", "president", "napolitano", 2000)
    g.add("um", "president", "coleman", 1200, 2600)
    g.add("um", "motto", "artes", 1100)
    return g


#: query text -> the sorted, JSON-encoded projected rows every system must
#: return, or the exception class name every system must raise.
EXPECTED = {
    # UNION: both branches contribute.
    "SELECT ?x ?v ?t { {?x president ?v ?t} UNION {?x motto ?v ?t} }": [
        ["uc", "napolitano", [[2000, LIVE]]],
        ["uc", "yudof", [[1000, 2000]]],
        ["um", "artes", [[1100, LIVE]]],
        ["um", "coleman", [[1200, 2600]]],
    ],
    # OPTIONAL keeps the rows without a motto, unbound.
    "SELECT ?x ?p ?m {?x president ?p ?t . OPTIONAL {?x motto ?m ?t2}}": [
        ["uc", "napolitano", None],
        ["uc", "yudof", None],
        ["um", "coleman", "artes"],
    ],
    # A filter over the OPTIONAL variable rejects the unbound rows.
    "SELECT ?x ?m {?x president ?p ?t . OPTIONAL {?x motto ?m ?t2} . "
    "FILTER(?m = artes)}": [
        ["um", "artes"],
    ],
    # LENGTH sees ?t after both patterns intersected it: [1900, 2000).
    "SELECT ?a ?t {x p1 ?a ?t . x p2 ?b ?t . FILTER(LENGTH(?t) < 200)}": [
        ["alpha", [[1900, 2000]]],
    ],
    "SELECT ?s ?a ?t {?s p1 ?a ?t . ?s p2 ?b ?t . "
    "FILTER(LENGTH(?t) < 200)}": [
        ["x", "alpha", [[1900, 2000]]],
    ],
    # The joined ?t starts at 1900, whichever pattern is scanned first.
    "SELECT ?a {x p1 ?a ?t . x p2 ?b ?t . FILTER(TSTART(?t) < 1500)}": [],
    # A filter variable no pattern binds is a static error ...
    "SELECT ?x {?x president ?p ?t . FILTER(?q = 1)}": "EvaluationError",
    # ... also inside a UNION branch.
    "SELECT ?x { {?x president ?p ?t . FILTER(?q = 1)} UNION "
    "{?x motto ?m ?t} }": "EvaluationError",
    # An early restriction beside a UNION: x's p1 period ends in 1975,
    # before the filter's 1978 (chronon 2922), so only y joins.
    "SELECT ?s ?v ?t {?s p1 ?a ?t . FILTER(YEAR(?t) >= 1978) . "
    "{?s p2 ?v ?t} UNION {?s motto ?v ?t} }": [
        ["y", "gamma", [[3500, 4000]]],
    ],
    # A filter that is a type error on a row rejects the row.
    "SELECT ?x {?x president ?p ?t . FILTER(YEAR(?p) = 2010)}": [],
    "SELECT ?s {z p2 ?a ?t2 . ?s p1 ?a ?t . FILTER(YEAR(?a) = 1)}": [],
    # uc and um live on different shards of two, and both answer
    # president: the union of the shard answers keeps it once.
    "SELECT ?k {?s ?k ?o ?t}": [["motto"], ["p1"], ["p2"], ["president"]],
}


def outcome(system, text: str):
    """Sorted encoded rows, or the name of the exception raised."""
    try:
        result = system.query(text)
    except Exception as error:  # the class is the answer
        return type(error).__name__
    return sorted(
        (
            [encode_value(row.get(name)) for name in result.variables]
            for row in result.rows
        ),
        key=json.dumps,
    )


@pytest.fixture(scope="module")
def in_process():
    graph = _graph()
    systems = {
        "engine": RDFTX.from_graph(graph),
        "engine+optimizer": RDFTX.from_graph(graph, optimizer=Optimizer()),
    }
    for baseline in (*ALL_BASELINES, Ng4jBaseline):
        systems[baseline.name] = baseline.from_graph(graph)
    assert len(systems) == 8
    return systems


@pytest.fixture(scope="module", params=[1, 2], ids=["1shard", "2shard"])
def cluster(request, tmp_path_factory):
    shards = request.param
    directory = tmp_path_factory.mktemp(f"semantics{shards}")
    with ClusterStore(directory, shards=shards, fsync=False) as store:
        store.load_dataset(_graph())
        yield store


@pytest.mark.parametrize("text", list(EXPECTED))
def test_in_process_systems_agree(in_process, text):
    for _ in range(2):  # the engines' second answer is a plan-cache hit
        got = {name: outcome(system, text)
               for name, system in in_process.items()}
        assert got == {name: EXPECTED[text] for name in in_process}


@pytest.mark.parametrize("text", list(EXPECTED))
def test_clusters_agree(cluster, text):
    assert outcome(cluster, text) == EXPECTED[text]


FILTER_ROWS_IN = metrics.counter("engine.filter_rows_in")
GOLDEN_DATASET = Path(__file__).parent / "golden" / "cluster_fig9.tnq"


def filter_rows_in(system, text: str) -> int:
    """How far one query moves ``engine.filter_rows_in`` in this process."""
    before = FILTER_ROWS_IN.value
    system.query(text)
    return FILTER_ROWS_IN.value - before


@pytest.mark.parametrize("optimize", [False, True],
                         ids=["heuristic", "optimizer"])
def test_an_early_conjunct_runs_once_beside_union_and_optional(optimize):
    """The base and its restriction alone, under a UNION, and under an
    OPTIONAL: the restriction filters the 97 base rows once each time."""
    if not metrics.ENABLED:
        pytest.skip("counters are off (REPRO_OBS=0)")
    engine = RDFTX.from_graph(load_graph(GOLDEN_DATASET),
                              optimizer=Optimizer() if optimize else None)
    base = "?s population ?a ?t . FILTER(YEAR(?t) >= 2005)"
    texts = [
        f"SELECT ?s ?a {{{base}}}",
        f"SELECT ?s ?a ?v {{{base} . "
        "{?s mayor ?v ?t2} UNION {?s leader ?v ?t2} }",
        f"SELECT ?s ?a ?m {{{base} . OPTIONAL {{?s mayor ?m ?t2}}}}",
    ]
    for text in texts:
        for _ in range(2):  # a miss, then a plan-cache hit
            assert filter_rows_in(engine, text) == 97, text


def test_the_coordinator_runs_only_what_no_shard_ran(tmp_path):
    """A joined query whose conjunct rode along to the shards filters
    nothing at the coordinator; one that spans two stars is run there,
    once per joined row.  A chain through an object is two stars: no
    shard answers it alone."""
    if not metrics.ENABLED:
        pytest.skip("counters are off (REPRO_OBS=0)")
    graph = _graph()
    graph.add("coleman", "alma", "michigan", 1100)
    # No result cache: each query is asked twice, and the second ask must
    # run on the shards and the coordinator again.
    with ClusterStore(tmp_path, shards=2, fsync=False,
                      query_cache_size=None) as store:
        store.load_dataset(graph)
        rode = ("SELECT ?x ?p ?a {?x president ?p ?t . ?p alma ?a ?t2 . "
                "FILTER(YEAR(?t) >= 1972)}")
        assert outcome(store, rode) == [["um", "coleman", "michigan"]]
        assert filter_rows_in(store, rode) == 0
        spans = ("SELECT ?x ?p ?a {?x president ?p ?t . ?p alma ?a ?t2 . "
                 "FILTER(?x != ?a)}")
        assert outcome(store, spans) == [["um", "coleman", "michigan"]]
        assert filter_rows_in(store, spans) == 1
