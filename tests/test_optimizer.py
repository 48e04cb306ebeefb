"""Tests for the query optimizer: statistics, cost model, DP ordering."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datasets import wikipedia
from repro.engine import RDFTX
from repro.engine.patterns import translate_pattern
from repro.engine.plan import PlanGraph
from repro.model import TemporalGraph
from repro.model.time import MIN_TIME, NOW
from repro.mvsbt.histogram import CharacteristicSets, TemporalHistogram
from repro.optimizer import (
    Optimizer,
    enumerate_orders,
    estimate_order_cost,
    optimize,
)
from repro.sparqlt import parse


@pytest.fixture(scope="module")
def dataset():
    return wikipedia.generate(3000, seed=13)


@pytest.fixture(scope="module")
def stats(dataset):
    # A toy graph cannot reach the paper's 10% space budget (the histogram
    # has a size floor); give it room so estimates stay meaningful.
    return built_statistics(dataset.graph, cm=4, lm=4, budget_fraction=2.0)


def built_statistics(graph, **thresholds):
    optimizer = Optimizer(**thresholds)
    optimizer.rebuild(graph)
    return optimizer.statistics


def build_graph(engine_or_graph, text):
    query = parse(text)
    graph = engine_or_graph
    conjuncts = query.filter_conjuncts()
    patterns = [
        translate_pattern(p, graph.dictionary, conjuncts)
        for p in query.patterns
    ]
    return PlanGraph.build(query, patterns)


class TestCharacteristicSets:
    def test_paper_example(self):
        """Subjects with the same predicates share a characteristic set."""
        g = TemporalGraph()
        g.add("UC", "president", "a", 1, 10)
        g.add("UC", "undergraduate", "x", 1, 10)
        g.add("UM", "president", "b", 1, 10)
        g.add("UM", "undergraduate", "y", 1, 10)
        g.add("Lonely", "motto", "z", 1, 10)
        charsets = CharacteristicSets.from_rows(g.encoded_rows())
        assert len(charsets) == 2
        uc = charsets.of_subject[g.dictionary.lookup("UC")]
        um = charsets.of_subject[g.dictionary.lookup("UM")]
        assert uc == um

    def test_with_predicate_index(self):
        g = TemporalGraph()
        g.add("A", "p", "1", 1, 5)
        g.add("B", "q", "1", 1, 5)
        charsets = CharacteristicSets.from_rows(g.encoded_rows())
        pid = g.dictionary.lookup("p")
        assert len(charsets.with_predicate[pid]) == 1


ROUNDS = TemporalHistogram.MAX_COARSENING_ROUNDS


def at_thresholds(graph, cm, lm):
    """The histogram at exactly ``(cm, lm)``: under an unbounded budget
    every candidate fits, so the search ends on the constructor's pair."""
    histogram = TemporalHistogram(cm=cm, lm=lm, budget_fraction=float("inf"))
    histogram.build(graph)
    assert (histogram.cm, histogram.lm) == (cm, lm)
    return histogram


def ascending_first_fit(graph, cm, lm, budget_fraction):
    """Reference search — what ``build`` did before it went coarse to fine:
    rebuild from the finest thresholds up, keep the first that fits."""
    raw = graph.raw_size()
    ladder = [at_thresholds(graph, cm << i, lm << i) for i in range(ROUNDS + 1)]
    fits = [raw == 0 or h.core_sizeof() <= budget_fraction * raw for h in ladder]
    chosen = fits.index(True) if True in fits else ROUNDS
    return ladder[chosen], fits


class TestHistogram:
    def test_budget_pressure_coarsens(self, dataset):
        """A tight budget doubles the thresholds and shrinks the histogram
        (small graphs cannot always reach the paper's 8.5% because the
        charset schema and side tables put a floor under the size)."""
        loose = TemporalHistogram(cm=2, lm=2, budget_fraction=10.0)
        loose.build(dataset.graph)
        tight = TemporalHistogram(cm=2, lm=2, budget_fraction=0.02)
        tight.build(dataset.graph)
        assert tight.cm > loose.cm
        assert tight.sizeof() <= loose.sizeof()
        # The search starts on the middle rung (cm 16) and walks to the
        # fit/miss boundary: ``loose`` fits everywhere and walks down to
        # the base (16, 8, 4, 2), ``middling`` misses once and fits one
        # rung up (16, 32), and ``tight`` fits nowhere (16 … 128).
        middling = TemporalHistogram(cm=2, lm=2, budget_fraction=0.25)
        middling.build(dataset.graph)
        assert (loose.cm, middling.cm, tight.cm) == (2, 32, 128)
        assert [h.candidates_built for h in (loose, middling, tight)] == [
            4, 2, 4]

    def test_build_is_reentrant(self, dataset):
        """A second build() searches from the constructor's thresholds
        again, not from wherever the first search ended (which, under a
        budget nothing meets, used to coarsen 8 -> 512 -> 32 768)."""
        histogram = TemporalHistogram(budget_fraction=0.001)
        histogram.build(dataset.graph)
        first = (histogram.cm, histogram.lm, histogram.core_sizeof())
        assert first[:2] == (8 << ROUNDS, 8 << ROUNDS)
        histogram.build(dataset.graph)
        assert (histogram.cm, histogram.lm, histogram.core_sizeof()) == first

    def test_seeded_build_equals_a_cold_build(self, dataset):
        """Where the search starts decides only what it costs: a build
        seeded from a previous choice — or from any rung — keeps what a
        cold build keeps, and one seeded at the answer builds just the
        answer and its finer miss."""
        cold = TemporalHistogram(cm=2, lm=2, budget_fraction=0.25)
        cold.build(dataset.graph)
        rows = dataset.graph.encoded_rows()
        raw = dataset.graph.raw_size()
        starts = sorted(triple.period.start for triple in dataset.graph)
        windows = [(t, t + 400) for t in starts[::len(starts) // 8]]
        for rung in range(ROUNDS + 1):
            seeded = TemporalHistogram(cm=2, lm=2, budget_fraction=0.25)
            seeded.build_rows(rows, raw, start=(2 << rung, 2 << rung))
            assert (seeded.cm, seeded.lm) == (cold.cm, cold.lm)
            assert seeded.sizeof() == cold.sizeof()
            for t1, t2 in windows:
                assert (seeded.triples_alive(t1, t2)
                        == cold.triples_alive(t1, t2))
            if (seeded.cm, seeded.lm) == (2 << rung, 2 << rung):
                assert seeded.candidates_built == 2

    def test_refresh_starts_from_the_previous_choice(self, dataset):
        """A first build walks up from the middle rung (cm 8: 8, 16, 32);
        a refresh starts at that choice and builds it and its finer miss."""
        optimizer = Optimizer(cm=1, lm=1, budget_fraction=0.25)
        optimizer.rebuild(dataset.graph)
        first = optimizer.statistics.histogram
        optimizer.rebuild(dataset.graph)
        refreshed = optimizer.statistics.histogram
        assert (refreshed.cm, refreshed.lm) == (first.cm, first.lm) == (32, 32)
        assert refreshed.core_sizeof() == first.core_sizeof()
        assert (first.candidates_built, refreshed.candidates_built) == (3, 2)

    def test_pinned_against_the_pre_speedup_build(self):
        """Same (cm, lm), same sizes, same sampled estimates as the commit
        before the build went single-ingest / coarse-to-fine / live-list
        (see tests/histogram_pins.py)."""
        golden = json.loads(
            (Path(__file__).parent / "golden" / "histogram_pins.json")
            .read_text()
        )
        if golden["hash_algorithm"] != sys.hash_info.algorithm:
            pytest.skip("pins were recorded under another str hash algorithm")
        fresh = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "histogram_pins.py")],
            env={**os.environ, "PYTHONHASHSEED": "0"},
            capture_output=True, text=True, timeout=300, check=True,
        )
        assert json.loads(fresh.stdout) == golden

    @given(
        seed=st.integers(0, 10_000),
        triples=st.integers(1, 250),
        subjects=st.sampled_from([1, 3, 10, 60]),
        predicates=st.sampled_from([1, 2, 5, 12]),
        horizon=st.sampled_from([1, 5, 50, 1000]),
        cm=st.integers(1, 6),
        lm=st.integers(1, 6),
        budget_fraction=st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0, 50.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_search_equals_ascending_first_fit(
        self, seed, triples, subjects, predicates, horizon, cm, lm,
        budget_fraction,
    ):
        import random

        rng = random.Random(seed)
        graph = TemporalGraph()
        for _ in range(triples):
            start = rng.randrange(horizon)
            end = NOW if rng.random() < 0.2 else start + 1 + rng.randrange(horizon)
            graph.add(f"s{rng.randrange(subjects)}",
                      f"p{rng.randrange(predicates)}",
                      f"o{rng.randrange(20)}", start, end)
        want, fits = ascending_first_fit(graph, cm, lm, budget_fraction)
        # The two searches agree whenever "fits" is monotone in the
        # threshold; a histogram that shrinks, grows and shrinks again
        # across doublings is out of scope for both.
        assume(fits == sorted(fits))
        got = TemporalHistogram(cm=cm, lm=lm, budget_fraction=budget_fraction)
        got.build(graph)
        assert (got.cm, got.lm) == (want.cm, want.lm)
        # The boundary: the kept candidate fits (or is the coarsest) and
        # the next finer one misses (or the kept one is the base).
        rung = (got.cm // cm).bit_length() - 1
        assert fits[rung] or rung == ROUNDS
        assert rung == 0 or not fits[rung - 1]
        assert got.core_sizeof() == want.core_sizeof()
        assert got.sizeof() == want.sizeof()
        for charset in range(len(got.charsets)):
            assert (got.subjects_alive(charset, 0, NOW)
                    == want.subjects_alive(charset, 0, NOW))
        for t1 in range(0, horizon + 1, max(horizon // 7, 1)):
            assert (got.triples_alive(t1, t1 + horizon // 3 + 1)
                    == want.triples_alive(t1, t1 + horizon // 3 + 1))

    def test_subject_counts_roughly_correct(self, dataset):
        histogram = TemporalHistogram(cm=4, lm=4, budget_fraction=0.2)
        histogram.build(dataset.graph)
        total_subjects = dataset.graph.distinct_subjects()
        estimate = sum(
            histogram.subjects_alive(cs, MIN_TIME, NOW)
            for cs in range(len(histogram.charsets))
        )
        assert estimate == pytest.approx(total_subjects, rel=0.1)

    def test_occurrences_roughly_correct(self, dataset):
        histogram = TemporalHistogram(cm=4, lm=4, budget_fraction=0.2)
        histogram.build(dataset.graph)
        estimate = histogram.triples_alive(MIN_TIME, NOW)
        assert estimate == pytest.approx(len(dataset.graph), rel=0.1)


class TestStatistics:
    def test_paper_characteristic_set_formula(self):
        """The Section 6.1 worked example: 100 subjects, occurrences 150 and
        110 give a star estimate of 165."""
        g = TemporalGraph()
        for i in range(100):
            subject = f"uni_{i}"
            for copy in range(2 if i < 50 else 1):  # 150 president triples
                g.add(subject, "president", f"p{i}_{copy}", 1 + copy * 10,
                      5 + copy * 10)
            for copy in range(2 if i < 10 else 1):  # 110 undergrad triples
                g.add(subject, "undergraduate", f"u{i}_{copy}",
                      1 + copy * 10, 5 + copy * 10)
        stats = built_statistics(g, cm=1, lm=1, budget_fraction=10.0)
        pid1 = g.dictionary.lookup("president")
        pid2 = g.dictionary.lookup("undergraduate")
        estimate = stats.star_join_cardinality([pid1, pid2], MIN_TIME, NOW)
        assert estimate == pytest.approx(165.0, rel=0.05)

    def test_pattern_estimates_track_reality(self, dataset, stats):
        engine = RDFTX.from_graph(dataset.graph)
        for text in (
            "SELECT ?s ?o {?s club ?o ?t}",
            "SELECT ?s ?o {?s gdp ?o ?t}",
        ):
            graph = build_graph(dataset.graph, text)
            estimate = stats.pattern_cardinality(graph.patterns[0])
            actual = len(engine.query(text))
            assert estimate == pytest.approx(actual, rel=0.5)

    def test_cache(self, dataset, stats):
        stats.clear_cache()
        graph = build_graph(dataset.graph, "SELECT ?s ?o {?s club ?o ?t}")
        first = stats.pattern_cardinality(graph.patterns[0])
        assert stats.pattern_cardinality(graph.patterns[0]) == first
        assert len(stats._cache) == 1


class TestDP:
    def test_single_pattern(self, dataset, stats):
        graph = build_graph(dataset.graph, "SELECT ?s ?o {?s club ?o ?t}")
        order, cost = optimize(graph, stats)
        assert order == [0]

    def test_order_is_permutation(self, dataset, stats):
        text = (
            "SELECT ?s {?s population ?a ?t . ?s mayor ?b ?t . "
            "?s area ?c ?t . ?s country ?d ?t}"
        )
        graph = build_graph(dataset.graph, text)
        order, cost = optimize(graph, stats)
        assert sorted(order) == [0, 1, 2, 3]
        assert cost > 0

    def test_dp_at_least_as_good_as_exhaustive(self, dataset, stats):
        """The DP plan's estimated cost matches the best left-deep order."""
        text = (
            "SELECT ?s {?s population ?a ?t . ?s mayor ?b ?t . "
            "?s area ?c ?t}"
        )
        graph = build_graph(dataset.graph, text)
        order, cost = optimize(graph, stats)
        best = min(
            estimate_order_cost(graph, stats, o)
            for o in enumerate_orders(graph, stats)
        )
        assert cost <= best * 1.01

    def test_engine_with_optimizer_agrees(self, dataset):
        plain = RDFTX.from_graph(dataset.graph)
        optimized = RDFTX.from_graph(dataset.graph, optimizer=Optimizer(cm=4, lm=4))
        text = (
            "SELECT ?s ?a ?b {?s population ?a ?t . ?s mayor ?b ?t . "
            "FILTER(YEAR(?t) = 2012)}"
        )
        rows_plain = sorted(map(repr, plain.query(text)))
        rows_opt = sorted(map(repr, optimized.query(text)))
        assert rows_plain == rows_opt

    def test_optimizer_prefers_selective_anchor(self, dataset, stats):
        """A constant-object pattern should be joined before a huge scan."""
        triple = next(iter(dataset.graph))
        decode = dataset.graph.dictionary.decode
        subject = decode(triple.subject)
        predicate = decode(triple.predicate)
        obj = decode(triple.object)
        text = (
            f"SELECT ?s ?o {{?s ?p ?o ?t . ?s {predicate} {obj} ?t}}"
        )
        graph = build_graph(dataset.graph, text)
        order, _ = optimize(graph, stats)
        assert order[0] == 1  # the selective pattern leads
