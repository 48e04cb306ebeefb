"""Valid-time ingestion (Section 2.1 / technical-report note).

The engine's storage is designed for transaction time; valid-time
histories arrive out of order and may assert overlapping intervals for one
fact.  ``TemporalGraph.coalesced()`` normalizes them for loading.
"""

import pytest

from repro.engine import RDFTX
from repro.model import NOW, Period, PeriodSet, TemporalGraph
from repro.mvbt.tree import DuplicateKeyError


class TestCoalesced:
    def test_overlapping_assertions_merge(self):
        g = TemporalGraph()
        g.add("a", "p", "x", 10, 30)
        g.add("a", "p", "x", 20, 50)  # overlapping duplicate assertion
        g.add("a", "p", "x", 50, 60)  # adjacent
        g.add("a", "p", "x", 100, 110)  # disjoint
        merged = g.coalesced()
        assert len(merged) == 2
        assert RDFTX.from_graph(merged).when("a", "p", "x") == PeriodSet(
            [Period(10, 60), Period(100, 110)]
        )

    def test_live_interval_absorbs(self):
        g = TemporalGraph()
        g.add("a", "p", "x", 10, 30)
        g.add("a", "p", "x", 20, NOW)
        merged = g.coalesced()
        assert RDFTX.from_graph(merged).when("a", "p", "x") == PeriodSet(
            [Period(10, NOW)]
        )

    def test_distinct_facts_untouched(self):
        g = TemporalGraph()
        g.add("a", "p", "x", 10, 30)
        g.add("a", "p", "y", 20, 40)
        merged = g.coalesced()
        assert len(merged) == 2


class TestValidTimeLoading:
    def test_raw_overlaps_fail_loading(self):
        g = TemporalGraph()
        g.add("a", "p", "x", 10, 30)
        g.add("a", "p", "x", 20, 50)
        with pytest.raises(DuplicateKeyError):
            RDFTX.from_graph(g)

    def test_coalesced_valid_time_loads_and_queries(self):
        g = TemporalGraph()
        # Out-of-order, overlapping valid-time assertions.
        g.add("event", "venue", "rome", 500, 600)
        g.add("event", "venue", "rome", 550, 650)
        g.add("event", "venue", "paris", 100, 200)
        g.add("event", "speaker", "ada", 120, 180)
        engine = RDFTX.from_graph(g.coalesced())
        result = engine.query(
            "SELECT ?v ?t {event venue ?v ?t}"
        )
        by_venue = {r["v"]: r["t"] for r in result}
        assert by_venue["rome"] == PeriodSet([Period(500, 650)])
        # Temporal join across valid-time facts still works.
        joined = engine.query(
            "SELECT ?v {event venue ?v ?t . event speaker ada ?t}"
        )
        assert joined.column("v") == ["paris"]
