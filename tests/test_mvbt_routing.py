"""The MVBT write path's indexed live entries (PR 14).

An index node keeps its live routing entries in a key-sorted array and a
live plain leaf keeps a ``key -> entry`` map, so a write descends by
``bisect`` and never filters history.  Both are derived state; these tests
hold them to the entry lists they are derived from:

* the linear ``route`` / ``children_overlapping`` the arrays replaced live
  on here as the reference, compared at ``now``, at every historical
  chronon and on dead nodes, over random insert/delete streams on
  capacity-8 trees (plain, compressed part-way, and restored from a
  snapshot);
* ``check_invariants()`` recounts every array and map;
* the trees themselves are pinned to the bytes the commit before built
  (``tests/mvbt_node_pins.py``);
* a counts-not-clocks guard: a 4 000-triple load never asks an index entry
  whether it is alive.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.datasets import wikipedia
from repro.engine import RDFTX
from repro.mvbt import MVBT
from repro.mvbt.entry import IndexEntry, MIN_KEY
from repro.mvbt.scan import MAX_KEY, scan_pieces
from repro.mvbt.tree import DuplicateKeyError, TimeOrderError
from tests.test_mvbt_compression import SMALL, apply_event, update_streams

HERE = Path(__file__).parent


# ------------------------------------------------------- linear references


def reference_route(node, key, chronon):
    """The routing scan the live arrays replaced: every entry, dead or
    live, asked whether it is alive."""
    best = None
    for entry in node.entries():
        if not entry.alive_at(chronon):
            continue
        if entry.key <= key and (best is None or entry.key > best.key):
            best = entry
    if best is None:
        raise LookupError(key)
    return best.child


def reference_children_overlapping(node, key_low, key_high, chronon):
    alive = sorted(
        (e for e in node.entries() if e.alive_at(chronon)),
        key=lambda e: e.key,
    )
    out = []
    for idx, entry in enumerate(alive):
        upper = alive[idx + 1].key if idx + 1 < len(alive) else None
        if upper is not None and upper <= key_low:
            continue
        if entry.key >= key_high:
            break
        out.append(entry.child)
    return out


def route_or_none(route, node, key, chronon):
    try:
        return route(node, key, chronon)
    except LookupError:
        return None


# ------------------------------------------------------------- the streams
#
# ``update_streams`` (tests/test_mvbt_compression.py) draws ``(op, key,
# time)`` events over a small key domain — keys come back after deletion;
# leaves and index nodes overflow, underflow and merge — and the event
# index at which the tree is compressed, so packed and plain live leaves
# both take writes.


def build(events, compress_at):
    tree = MVBT(SMALL)
    for index, event in enumerate(events):
        if index == compress_at:
            tree.compress()
        apply_event(tree, event)
    return tree


def assert_routes_like_the_reference(tree, events):
    """Every index node, alive or dead, answers like the linear scan at
    every chronon the history touched, one before, ``now`` and beyond."""
    chronons = sorted({time for _, _, time in events})
    chronons = [chronons[0] - 1, *chronons, tree.current_time,
                tree.current_time + 5]
    keys = [MIN_KEY, (0,), (2, 100), (3, 0, 0), (5, 200, 2), (9,)]
    keys += [key for _, key, _ in events[::7]]
    ranges = [(MIN_KEY, MAX_KEY), ((1,), (3,)), ((2, 50), (2, 51)),
              ((0,), (0, 0, 1)), ((4, 150), MAX_KEY), ((7,), (8,))]
    checked = 0
    for node in tree.iter_nodes():
        if node.is_leaf:
            continue
        checked += 1
        for chronon in chronons:
            for key in keys:
                assert (
                    route_or_none(type(node).route, node, key, chronon)
                    is route_or_none(reference_route, node, key, chronon)
                ), (node, key, chronon)
            for key_low, key_high in ranges:
                got = node.children_overlapping(key_low, key_high, chronon)
                want = reference_children_overlapping(
                    node, key_low, key_high, chronon)
                assert len(got) == len(want) and all(
                    a is b for a, b in zip(got, want)
                ), (node, key_low, key_high, chronon)
    return checked


@settings(max_examples=60, deadline=None)
@given(update_streams())
def test_live_arrays_route_like_the_linear_scan(stream):
    events, compress_at = stream
    tree = build(events, compress_at)
    tree.check_invariants()
    assert_routes_like_the_reference(tree, events)
    # Snapshot restore rebuilds the arrays and maps through ``append``.
    restored = MVBT.load_state(tree.dump_state())
    restored.check_invariants()
    assert_routes_like_the_reference(restored, events)
    assert restored.dump_state() == tree.dump_state()


def test_dead_and_nested_index_nodes_route_like_the_linear_scan():
    """A longer fixed stream, for what the drawn ones are too short to
    build: index nodes under index nodes, next to dead ones."""
    events = [("insert", (i % 6, i, 0), i // 3) for i in range(240)]
    events += [("delete", (i % 6, i, 0), 90 + i // 4)
               for i in range(0, 240, 2)]
    tree = build(events, compress_at=100)
    tree.check_invariants()
    index_nodes = [n for n in tree.iter_nodes() if not n.is_leaf]
    assert any(not n.is_alive for n in index_nodes)
    assert any(
        not entry.child.is_leaf for n in index_nodes for entry in n.entries()
    )
    assert assert_routes_like_the_reference(tree, events) == len(index_nodes)


def test_check_invariants_catches_a_drifted_live_path():
    tree = build([("insert", (0, i, 0), i) for i in range(40)], None)
    root = tree.live_root
    assert not root.is_leaf
    stolen = root._live.pop()
    with pytest.raises(AssertionError, match="live"):
        tree.check_invariants()
    root._live.append(stolen)
    tree.check_invariants()
    leaf = tree._descend((0, 39, 0))[-1]
    del leaf._live[(0, 39, 0)]
    with pytest.raises(AssertionError, match="live entry map drifted"):
        tree.check_invariants()


def test_a_rejected_operation_leaves_the_tree_untouched():
    tree = build([("insert", (0, i, 0), 5 + i) for i in range(30)], 20)
    before = tree.dump_state()
    with pytest.raises(DuplicateKeyError):
        tree.insert((0, 3, 0), 100)
    with pytest.raises(KeyError):
        tree.delete((9, 9, 9), 100)
    with pytest.raises(TimeOrderError):
        tree.insert((1, 1, 1), 2)
    with pytest.raises(TimeOrderError):
        tree.delete((0, 3, 0), 2)
    assert tree.current_time == 34
    assert tree.dump_state() == before
    tree.insert((1, 1, 1), 34)  # the watermark did not move


# ------------------------------------------------------------ whole engine


def test_load_never_asks_an_index_entry_whether_it_is_alive(monkeypatch):
    """Counts, not clocks: bulk load routes through the live arrays only.
    (At the parent commit this count was 1.11 M for the same load.)"""
    calls = 0
    alive_at = IndexEntry.alive_at

    def counting(self, chronon):
        nonlocal calls
        calls += 1
        return alive_at(self, chronon)

    monkeypatch.setattr(IndexEntry, "alive_at", counting)
    engine = RDFTX.from_graph(wikipedia.generate(4000, seed=7).graph)
    assert calls == 0
    # The guard can fire: a scan of a past chronon, before the root's last
    # change, rebuilds that chronon's partition from the entry list.
    tree = engine.indexes["spo"]
    starts = sorted(row[3] for row in engine.history_rows())
    past = starts[len(starts) // 2]
    assert scan_pieces(tree, t1=past, t2=past + 1)
    assert calls > 0
    # ... and a scan of the current version does not.
    calls = 0
    assert scan_pieces(tree, t1=tree.current_time)
    assert calls == 0


def test_trees_are_pinned_to_the_pre_live_path_build():
    """Same node tables (every region, lifetime, link, entry and packed
    byte) and the same ``sizeof()`` after ``load``, and the same logical
    trees after ``load`` and after 500 mixed updates, as the commits named
    in the golden file's ``provenance`` (tests/mvbt_node_pins.py)."""
    golden = json.loads((HERE / "golden" / "mvbt_node_pins.json").read_text())
    if golden["hash_algorithm"] != sys.hash_info.algorithm:
        pytest.skip("pins were recorded under another str hash algorithm")
    fresh = subprocess.run(
        [sys.executable, str(HERE / "mvbt_node_pins.py")],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(fresh.stdout) == golden
