"""Answers do not depend on the tree shape.

The engine's default ``MVBTConfig`` (``repro.engine.engine.DEFAULT_CONFIG``)
was chosen by measuring bytes and work (EXPERIMENTS.md, "MVBT split
parameters by measurement"); the shape it replaced, ``(64, 12, 12)``, is kept
here as a twin.  The two build different trees — other splits, other copies,
other nodes, so every pin in ``tests/golden/mvbt_node_pins.json`` moved —
and must read back the same history and give the same answers: on the three
node-pin datasets, loaded and after their 500 pin updates
(``tests/mvbt_node_pins.py``), the engines give identical ``history_rows()``,
the fig9 golden answers (``tests/golden/cluster_fig9.json``), identical
answers to a generated query mix, and identical time slices of every index
at sampled chronons, in every scan mode.  At the default shape
``check_invariants()`` also holds after the first 12 000 events of the
suite's ``engine_maintain`` stream.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.cluster.executor import canonical_sort
from repro.datasets import govtrack, wikipedia
from repro.datasets.queries import (complex_queries, join_queries,
                                    selection_queries)
from repro.engine import RDFTX
from repro.engine.engine import DEFAULT_CONFIG
from repro.io import load_graph
from repro.model.time import NOW, encode_value
from repro.mvbt.scan import scan_pieces
from repro.mvbt.tree import MVBTConfig
from tests.mvbt_node_pins import GOLDEN_DATASET, _apply_updates

HERE = Path(__file__).parent
SUITE = HERE.parent / "benchmarks" / "suite"
GOLDEN = HERE / "golden" / "cluster_fig9.json"

#: The engine's tree shape before it was measured.
OLD = MVBTConfig(block_capacity=64, weak_min=12, epsilon=12)

DATASETS = {
    "fig9_golden": lambda: load_graph(GOLDEN_DATASET),
    "wikipedia_4000_seed7": lambda: wikipedia.generate(4000, seed=7).graph,
    "govtrack_4000_seed7": lambda: govtrack.generate(4000, seed=7).graph,
}

#: ``(sid, pid, oid)`` positions of each tree's key.
ORDERS = {"spo": (0, 1, 2), "pos": (1, 2, 0), "ops": (2, 1, 0)}

#: Chronons sampled per history for the time slices.
SLICES = 24


def serialize(result) -> dict:
    """Canonical row order, JSON-encoded values (the golden file's form)."""
    return {
        "variables": result.variables,
        "rows": [[encode_value(row.get(name)) for name in result.variables]
                 for row in canonical_sort(result.rows, result.variables)],
    }


def query_mix(graph) -> list[str]:
    by_count = complex_queries(graph, seed=5)
    return (selection_queries(graph, 12, seed=4)
            + join_queries(graph, 8, seed=6)
            + by_count[3][:4] + by_count[5][:4])


def sampled_chronons(rows) -> list[int]:
    bounds = sorted({row[3] for row in rows}
                    | {row[4] for row in rows if row[4] != NOW})
    step = max(len(bounds) // SLICES, 1)
    return bounds[::step] + [bounds[-1] - 1]


def time_slice(tree, chronon: int) -> list:
    """The keys a scan of the whole tree finds live at ``chronon``."""
    return sorted(key for key, lo, hi, _ in
                  scan_pieces(tree, t1=chronon, t2=chronon + 1)
                  if lo <= chronon < hi)


def expected_slice(rows, order, chronon: int) -> list:
    return sorted(tuple(row[i] for i in order) for row in rows
                  if row[3] <= chronon < row[4])


@pytest.fixture(scope="module", params=list(DATASETS))
def twins(request):
    """``(name, queries, {shape: state})`` where each state holds the
    loaded engine's rows and answers and the engine after the pin
    updates."""
    graph = DATASETS[request.param]()
    queries = query_mix(graph)
    states = {}
    for shape in (OLD, DEFAULT_CONFIG):
        engine = RDFTX.from_graph(graph, config=shape)
        state = {
            "loaded_rows": engine.history_rows(),
            "loaded_answers": [serialize(engine.query(q)) for q in queries],
        }
        _apply_updates(engine, graph)
        engine.check_invariants()
        state["engine"] = engine
        state["rows"] = engine.history_rows()
        states[shape] = state
    return request.param, queries, states


def test_the_default_is_the_measured_shape():
    assert DEFAULT_CONFIG == MVBTConfig(64, 8, 16)
    assert RDFTX().config == DEFAULT_CONFIG
    with pytest.raises(ValueError):
        MVBTConfig(64, 4, 20)  # past (4, 19), the widest the sweep could try


def test_the_shapes_build_different_trees(twins):
    _, _, states = twins
    old, new = (states[shape]["engine"] for shape in (OLD, DEFAULT_CONFIG))
    assert old.sizeof() != new.sizeof()


def test_history_rows_are_identical(twins):
    _, _, states = twins
    old, new = states[OLD], states[DEFAULT_CONFIG]
    assert old["loaded_rows"] == new["loaded_rows"]
    assert old["rows"] == new["rows"]
    assert len(new["rows"]) > len(new["loaded_rows"])


def test_answers_are_identical(twins):
    _, queries, states = twins
    old, new = states[OLD], states[DEFAULT_CONFIG]
    assert old["loaded_answers"] == new["loaded_answers"]
    assert any(answer["rows"] for answer in new["loaded_answers"])
    for text in queries:
        assert (serialize(old["engine"].query(text))
                == serialize(new["engine"].query(text))), text


@pytest.mark.parametrize("shape", [OLD, DEFAULT_CONFIG])
def test_fig9_golden_answers_hold_at_both_shapes(shape):
    golden = json.loads(GOLDEN.read_text())
    engine = RDFTX.from_graph(load_graph(GOLDEN_DATASET), config=shape)
    assert {text: serialize(engine.query(text)) for text in golden} == golden


def test_time_slices_are_identical(twins, scan_modes):
    _, _, states = twins
    old, new = states[OLD], states[DEFAULT_CONFIG]
    rows = new["rows"]
    wants = {(name, chronon): expected_slice(rows, order, chronon)
             for name, order in ORDERS.items()
             for chronon in sampled_chronons(rows)}
    for mode in scan_modes():
        for (name, chronon), want in wants.items():
            for state in (old, new):
                assert time_slice(state["engine"].indexes[name],
                                  chronon) == want, (mode, name, chronon)


@pytest.fixture()
def workloads():
    sys.path.insert(0, str(SUITE))
    try:
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(SUITE))


def test_invariants_hold_on_the_maintain_stream(workloads):
    """The suite's ``engine_maintain`` base, then its first 12 000 change
    events, at both shapes: the default keeps every MVBT invariant and
    both read back the same history."""
    scale = workloads.Scale()
    base, stream = workloads.maintain_history(
        7, scale, workloads.maintain_events(scale))
    engines = [RDFTX.from_graph(base, config=shape)
               for shape in (OLD, DEFAULT_CONFIG)]
    for op, *fact in stream[:12_000]:
        for engine in engines:
            (engine.insert if op == "insert" else engine.delete)(*fact)
    old, new = engines
    new.check_invariants()
    assert new.config == DEFAULT_CONFIG
    assert old.history_rows() == new.history_rows()
