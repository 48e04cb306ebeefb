"""Targeted tests for MVBT structure changes and forest bookkeeping.

These complement the reference-model property tests with explicit checks of
the four node structure changes of the paper's Figure 2(c), the root
registry, and the backward-link graph.
"""

import random

import pytest

from repro.model.time import MIN_TIME, NOW
from repro.mvbt import MVBT, MVBTConfig, collect_validity
from repro.mvbt.entry import MIN_KEY

SMALL = MVBTConfig(block_capacity=8, weak_min=2, epsilon=1)


def key(n: int) -> tuple:
    return (n, 0, 0)


def leaf_nodes(tree):
    return [n for n in tree.iter_nodes() if n.is_leaf]


class TestVersionSplit:
    def test_old_node_dies_and_links_back(self):
        tree = MVBT(SMALL)
        for i in range(SMALL.block_capacity + 1):
            tree.insert(key(i), i + 1)
        dead = [n for n in leaf_nodes(tree) if not n.is_alive]
        live = [n for n in leaf_nodes(tree) if n.is_alive]
        assert dead, "the overflowing leaf must have been killed"
        # Every live leaf traces back to a dead predecessor.
        for node in live:
            assert any(not p.is_alive for p in node.predecessors) or (
                node.predecessors == []
            )

    def test_key_split_partitions_regions(self):
        tree = MVBT(SMALL)
        for i in range(40):
            tree.insert(key(i), i + 1)
        live = sorted(
            (n for n in leaf_nodes(tree) if n.is_alive),
            key=lambda n: n.key_low,
        )
        assert len(live) >= 2
        assert live[0].key_low == MIN_KEY
        for left, right in zip(live, live[1:]):
            assert left.key_high == right.key_low

    def test_merge_restores_weak_condition(self):
        tree = MVBT(SMALL)
        for i in range(24):
            tree.insert(key(i), i + 1)
        for i in range(22):
            tree.delete(key(i), 100 + i)
        tree.check_invariants()
        live = [n for n in leaf_nodes(tree) if n.is_alive]
        for node in live:
            assert node.live_count >= SMALL.weak_min or node is tree.live_root

    def test_merge_key_split_bounds(self):
        """A merge that overfills performs merge & key split (Fig 2c)."""
        tree = MVBT(SMALL)
        for i in range(60):
            tree.insert(key(i), i + 1)
        # Deleting a stripe forces underflows next to full siblings.
        for i in range(0, 60, 3):
            tree.delete(key(i), 200 + i)
        tree.check_invariants()


class TestRootRegistry:
    def test_roots_partition_time(self):
        tree = MVBT(SMALL)
        for i in range(120):
            tree.insert(key(i % 30), i * 2 + 1)
            if i % 30 == 29:
                for j in range(30):
                    tree.delete(key(j), i * 2 + 2)
        starts = tree._root_starts
        assert starts == sorted(starts)
        assert starts[0] == MIN_TIME

    def test_root_for_routes_history(self):
        tree = MVBT(SMALL)
        for i in range(60):
            tree.insert(key(i), i + 1)
        for probe in (1, 10, 30, 59):
            root = tree.root_for(probe)
            assert root.start <= probe

    def test_height_shrink_after_mass_delete(self):
        tree = MVBT(SMALL)
        for i in range(60):
            tree.insert(key(i), i + 1)
        tall_root = tree.live_root
        assert not tall_root.is_leaf
        for i in range(57):
            tree.delete(key(i), 100 + i)
        tree.check_invariants()
        # History remains intact after the shrink.
        assert len(collect_validity(tree)) == 60

    def test_a_root_split_to_one_live_child_shrinks_the_height(self):
        """300 seeded streams: insert 20-40 keys, then delete all but two.
        A version split of the root that keeps one live child registers
        that child, never an index root routing to it alone."""
        for seed in range(300):
            rng = random.Random(seed)
            keys = [key(n) for n in range(rng.randint(20, 40))]
            rng.shuffle(keys)
            tree = MVBT(SMALL)
            time = 1
            for k in keys:
                tree.insert(k, time)
                time += rng.randrange(2)
            rng.shuffle(keys)
            for k in keys[:-2]:
                time += rng.randrange(2)
                tree.delete(k, time)
            root = tree.live_root
            assert root.is_leaf or root.live_count >= 2, (seed, root)
            tree.check_invariants()
            live = sorted(k for k, _, end in tree.history() if end == NOW)
            assert live == sorted(keys[-2:]), seed


class TestBackwardLinks:
    def test_links_cover_all_dead_leaves(self):
        """Every dead leaf is reachable by walking predecessors back from
        the live leaves — the property the link-based scan relies on."""
        tree = MVBT(SMALL)
        live = set()
        for i in range(120):
            k = key(i % 20)
            if k in live:
                tree.delete(k, 1 + i)
                live.discard(k)
            else:
                tree.insert(k, 1 + i)
                live.add(k)
        reachable = set()
        stack = [n for n in leaf_nodes(tree) if n.is_alive]
        while stack:
            node = stack.pop()
            if id(node) in reachable:
                continue
            reachable.add(id(node))
            stack.extend(p for p in node.predecessors if p.is_leaf)
        all_leaves = {
            id(n) for n in leaf_nodes(tree)
            if n.start < n.death  # non-empty lifetime
        }
        assert all_leaves <= reachable

    def test_key_bounds_propagate(self):
        tree = MVBT(SMALL)
        for i in range(100):
            tree.insert(key(i), i + 1)
        for node in tree.iter_nodes():
            if node.key_high is not None:
                assert node.key_low < node.key_high
