"""Every evaluator answers SPARQLT the same way.

The engine (with and without the optimizer), the six baselines and 1- and
2-shard clusters share one group algebra and one filter rule set, so each
query below must give every system the same sorted rows, or make every
system raise the same exception class.  The expected answers are pinned by
hand; the shapes are the ones where evaluators have drifted apart: UNION
and OPTIONAL, a filter over an OPTIONAL variable, ``LENGTH``/``TSTART`` over
a temporal variable that a later join still narrows, a filter variable no
pattern binds, and a filter that is a type error on every row.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines import ALL_BASELINES, Ng4jBaseline
from repro.cluster import ClusterStore
from repro.cluster.protocol import encode_value
from repro.engine import RDFTX
from repro.model import TemporalGraph
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
    # A filter that is a type error on a row rejects the row.
    "SELECT ?x {?x president ?p ?t . FILTER(YEAR(?p) = 2010)}": [],
    "SELECT ?s {z p2 ?a ?t2 . ?s p1 ?a ?t . FILTER(YEAR(?a) = 1)}": [],
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
    got = {name: outcome(system, text) for name, system in in_process.items()}
    assert got == {name: EXPECTED[text] for name in in_process}


@pytest.mark.parametrize("text", list(EXPECTED))
def test_clusters_agree(cluster, text):
    assert outcome(cluster, text) == EXPECTED[text]
