"""Tests for the synthetic dataset and workload generators."""

import pytest

from repro.datasets import govtrack, wikipedia, yago
from repro.datasets.queries import (
    complex_queries,
    join_queries,
    selection_queries,
)
from repro.datasets.wikipedia import table1_statistics
from repro.engine import RDFTX
from repro.model.time import NOW
from repro.sparqlt import parse


class TestWikipediaGenerator:
    @pytest.fixture(scope="class")
    def dataset(self):
        return wikipedia.generate(4000, seed=7)

    def test_size_close_to_target(self, dataset):
        assert 4000 <= len(dataset.graph) < 4400

    def test_deterministic(self):
        a = wikipedia.generate(500, seed=3)
        b = wikipedia.generate(500, seed=3)
        assert [str(t) for t in a.graph.triples()] == [
            str(t) for t in b.graph.triples()
        ]

    def test_intervals_well_formed(self, dataset):
        for triple in dataset.graph:
            assert triple.period.start < triple.period.end

    def test_no_overlapping_versions(self, dataset):
        """Consecutive versions of one property must not overlap
        (transaction-time history)."""
        from collections import defaultdict

        chains = defaultdict(list)
        for t in dataset.graph:
            chains[(t.subject, t.predicate)].append(t.period)
        for periods in chains.values():
            periods.sort()
            for prev, cur in zip(periods, periods[1:]):
                assert prev.end <= cur.start

    def test_table1_statistics_shape(self):
        """Update frequencies should rank as in Table 1:
        Country/gdp > Software/release > City/population > Player/club."""
        dataset = wikipedia.generate(20000, seed=7)
        stats = table1_statistics(dataset)
        gdp = stats[("Country", "gdp")]
        release = stats[("Software", "release")]
        population = stats[("City", "population")]
        club = stats[("Player", "club")]
        assert gdp > release > club
        assert population == pytest.approx(7.16, rel=0.4)
        assert gdp == pytest.approx(11.78, rel=0.4)

    def test_categories_form_characteristic_sets(self, dataset):
        from repro.mvsbt.histogram import CharacteristicSets

        charsets = CharacteristicSets.from_rows(dataset.graph.encoded_rows())
        # Few charsets relative to subjects: category structure captured.
        assert len(charsets) < len(dataset.category_of) / 3


class TestGovTrackGenerator:
    @pytest.fixture(scope="class")
    def dataset(self):
        return govtrack.generate(3000, seed=5, n_periods=120)

    def test_size(self, dataset):
        assert len(dataset.graph) >= 3000

    def test_few_predicates(self, dataset):
        predicates = {t.predicate for t in dataset.graph}
        assert len(predicates) <= 30

    def test_coarse_time_domain(self, dataset):
        starts = {t.period.start for t in dataset.graph}
        assert len(starts) <= 120

    def test_live_fraction(self, dataset):
        live = sum(1 for t in dataset.graph if t.period.end == NOW)
        assert 0 < live < len(dataset.graph)


class TestYagoGenerator:
    def test_generates(self):
        dataset = yago.generate(1500, seed=2)
        assert len(dataset.graph) >= 1500
        predicates = {t.predicate for t in dataset.graph}
        assert len(predicates) > 10


class TestQueryWorkloads:
    @pytest.fixture(scope="class")
    def dataset(self):
        return wikipedia.generate(2500, seed=11)

    @pytest.fixture(scope="class")
    def engine(self, dataset):
        return RDFTX.from_graph(dataset.graph)

    def test_selection_queries_parse_and_run(self, dataset, engine):
        queries = selection_queries(dataset.graph, count=10)
        assert len(queries) == 10
        nonempty = 0
        for text in queries:
            parse(text)
            if len(engine.query(text)) > 0:
                nonempty += 1
        assert nonempty >= 8

    def test_join_queries_parse_and_run(self, dataset, engine):
        queries = join_queries(dataset.graph, count=10)
        assert len(queries) == 10
        nonempty = 0
        for text in queries:
            parse(text)
            if len(engine.query(text)) > 0:
                nonempty += 1
        assert nonempty >= 5

    def test_complex_queries_structure(self, dataset, engine):
        workload = complex_queries(dataset.graph, seeds=5, max_patterns=7)
        assert sorted(workload) == [3, 4, 5, 6, 7]
        total = sum(len(qs) for qs in workload.values())
        assert total == 25
        for n, texts in workload.items():
            for text in texts:
                query = parse(text)
                assert len(query.patterns) == n
        # Extended queries stay executable.
        for text in workload[3] + workload[7]:
            engine.query(text)
