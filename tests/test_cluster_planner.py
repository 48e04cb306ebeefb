"""Shard-planner determinism and routing properties.

The whole cluster design leans on one fact: shard assignment is a pure
function of (subject, shard count).  If it drifted across runs, processes
or pickles, restarted coordinators would route reads to shards that do
not hold the data — silently returning partial results.  These tests pin
that determinism, plus the routing contracts the executor relies on.
"""

from __future__ import annotations

import pickle
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.planner import ShardPlanner, shard_of
from repro.model.graph import TemporalGraph
from repro.sparqlt import parse
from repro.sparqlt.ast import GroupGraphPattern, QuadPattern, TermConst, Var

TERMS = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40
)


def _graph(rows):
    graph = TemporalGraph()
    for index, (s, p, o) in enumerate(rows):
        graph.add(s, p, o, 100 + index)
    return graph


def _one(pattern: QuadPattern) -> GroupGraphPattern:
    return GroupGraphPattern(patterns=[pattern])


class TestShardOf:
    @given(TERMS, st.integers(min_value=1, max_value=64))
    def test_in_range(self, term, shards):
        assert 0 <= shard_of(term, shards) < shards

    @given(TERMS, st.integers(min_value=1, max_value=64))
    def test_stable_within_process(self, term, shards):
        assert shard_of(term, shards) == shard_of(term, shards)

    def test_single_shard_owns_everything(self):
        assert shard_of("anything", 1) == 0

    def test_rejects_zero_shards(self):
        try:
            shard_of("x", 0)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_stable_across_interpreters(self):
        # PYTHONHASHSEED varies string hash() per process; crc32 must
        # not.  A fresh interpreter must compute identical assignments.
        terms = ["alpha", "beta", "élève", "p3", ""]
        local = [shard_of(t, 4) for t in terms if t]
        code = (
            "import sys, zlib; sys.path.insert(0, 'src'); "
            "from repro.cluster.planner import shard_of; "
            "print([shard_of(t, 4) for t in "
            f"{[t for t in terms if t]!r}])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
            check=True,
        )
        assert eval(out.stdout.strip()) == local  # noqa: S307 - own output


class TestPartitionDeterminism:
    @given(
        st.lists(st.tuples(TERMS, TERMS, TERMS), max_size=30),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_dataset_same_assignment(self, rows, shards):
        parts_a = ShardPlanner(shards).partition(_graph(rows))
        parts_b = ShardPlanner(shards).partition(_graph(rows))
        keyed_a = [sorted(tuple(row[:4]) for row in part)
                   for part in parts_a]
        keyed_b = [sorted(tuple(row[:4]) for row in part)
                   for part in parts_b]
        assert keyed_a == keyed_b

    @given(
        st.lists(st.tuples(TERMS, TERMS, TERMS), max_size=30),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_is_disjoint_and_complete(self, rows, shards):
        graph = _graph(rows)
        parts = ShardPlanner(shards).partition(graph)
        merged = sorted(tuple(row[:4]) for part in parts for row in part)
        assert merged == sorted(
            (t.subject, t.predicate, t.object, t.period.start)
            for t in graph.triples()
        )
        for shard, part in enumerate(parts):
            for subject, *_ in part:
                assert shard_of(subject, shards) == shard

    @given(
        st.lists(st.tuples(TERMS, TERMS, TERMS), max_size=30),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_pickle_round_trip_preserves_routing(self, rows, shards):
        planner = ShardPlanner(shards)
        planner.partition(_graph(rows))
        clone = pickle.loads(pickle.dumps(planner))
        assert clone.shards == planner.shards
        for s, p, _o in rows:
            for pattern in (QuadPattern(TermConst(s), TermConst(p),
                                        Var("o"), Var("t")),
                            QuadPattern(Var("s"), TermConst(p),
                                        Var("o"), Var("t"))):
                assert (clone.star_shards(_one(pattern))
                        == planner.star_shards(_one(pattern)))


class TestRouting:
    def test_bound_subject_routes_to_owner(self):
        planner = ShardPlanner(4)
        pattern = QuadPattern(
            TermConst("p3"), Var("p"), Var("o"), Var("t")
        )
        assert planner.star_shards(_one(pattern)) == [shard_of("p3", 4)]

    def test_unknown_predicate_broadcasts(self):
        planner = ShardPlanner(4)
        pattern = QuadPattern(
            Var("s"), TermConst("never-seen"), Var("o"), Var("t")
        )
        assert planner.star_shards(_one(pattern)) == [0, 1, 2, 3]

    def test_unbound_everything_broadcasts(self):
        planner = ShardPlanner(3)
        pattern = QuadPattern(Var("s"), Var("p"), Var("o"), Var("t"))
        assert planner.star_shards(_one(pattern)) == [0, 1, 2]


def _group(text: str) -> GroupGraphPattern:
    return parse(text).group


def _subjects_on(shard: int, shards: int, count: int) -> list[str]:
    return [s for s in (f"subj{i}" for i in range(10_000))
            if shard_of(s, shards) == shard][:count]


class TestStarShards:
    """Which shards answer a whole query: the subject-star rule."""

    def test_a_constant_subject_routes_to_its_owner(self):
        planner = ShardPlanner(4)
        subject = "a"
        text = f"SELECT ?p ?o {{{subject} ?p ?o ?t . {subject} q ?x ?t2}}"
        assert planner.star_shards(_group(text)) == [shard_of(subject, 4)]

    def test_colocated_constant_subjects_route_to_their_owner(self):
        first, second = _subjects_on(2, 4, 2)
        text = f"SELECT ?o {{{first} p ?o ?t . {second} p ?o ?t2}}"
        assert ShardPlanner(4).star_shards(_group(text)) == [2]

    def test_a_variable_subject_routes_to_every_shard(self):
        text = "SELECT ?s {?s livesIn ?c ?t . ?s worksAt ?w ?t2}"
        assert ShardPlanner(4).star_shards(_group(text)) == [0, 1, 2, 3]

    def test_mixed_subjects_are_not_a_star(self):
        planner = ShardPlanner(4)
        for text in ["SELECT ?s {?s livesIn ?c ?t . ?c worksAt ?w ?t2}",
                     "SELECT ?s {?s livesIn ?c ?t . a worksAt ?s ?t2}"]:
            assert planner.star_shards(_group(text)) is None, text
        owners = {shard_of(s, 4) for s in "abcdef"}
        assert len(owners) > 1, "test needs subjects on distinct shards"
        text = "SELECT ?o {" + " . ".join(
            f"{s} p ?o ?t{i}" for i, s in enumerate("abcdef")) + "}"
        assert planner.star_shards(_group(text)) is None

    def test_a_union_branch_with_another_subject_is_not_a_star(self):
        text = ("SELECT ?s ?v {?s livesIn ?c ?t . "
                "{?s worksAt ?v ?t2} UNION {?v worksAt ?s ?t2} }")
        assert ShardPlanner(4).star_shards(_group(text)) is None

    def test_an_optional_on_the_same_subject_is_a_star(self):
        text = ("SELECT ?s ?m {?s livesIn ?c ?t . "
                "OPTIONAL {?s motto ?m ?t2}}")
        assert ShardPlanner(4).star_shards(_group(text)) == [0, 1, 2, 3]

    def test_one_shard_routes_every_query(self):
        text = "SELECT ?s {?s livesIn ?c ?t . ?c worksAt ?w ?t2}"
        assert ShardPlanner(1).star_shards(_group(text)) == [0]
