"""End-to-end tests of the RDF-TX engine on the paper's running examples.

The fixture graph is Table 2 (University of California) plus a second
university so joins have something to distinguish.
"""

import pytest

from repro.engine import RDFTX, UnknownTermError
from repro.model import (
    NOW,
    Period,
    PeriodSet,
    TemporalGraph,
    date_to_chronon,
)
from repro.mvbt.tree import MVBTConfig

D = date_to_chronon


@pytest.fixture(scope="module")
def graph():
    g = TemporalGraph()
    # Table 2: University of California.
    g.add("UC", "president", "Mark_Yudof", D("06/16/2008"), D("09/30/2013"))
    g.add("UC", "president", "Janet_Napolitano", D("09/30/2013"))
    g.add("UC", "endowment", "10.3", D("07/01/2013"), D("07/01/2014"))
    g.add("UC", "endowment", "13.1", D("07/01/2014"))
    g.add("UC", "undergraduate", "184562", D("05/14/2013"), D("01/30/2015"))
    g.add("UC", "undergraduate", "188300", D("01/30/2015"))
    g.add("UC", "staff", "18896", D("08/29/2013"), D("01/30/2015"))
    g.add("UC", "staff", "19700", D("01/30/2015"))
    g.add("UC", "budget", "22.7", D("01/30/2013"), D("01/30/2015"))
    g.add("UC", "budget", "25.46", D("01/30/2015"))
    # A second university for joins.
    g.add("UM", "president", "Mary_Sue_Coleman", D("08/01/2002"), D("07/01/2014"))
    g.add("UM", "president", "Mark_Schlissel", D("07/01/2014"))
    g.add("UM", "undergraduate", "27979", D("09/01/2012"), D("09/01/2014"))
    g.add("UM", "undergraduate", "28395", D("09/01/2014"))
    g.add("UM", "budget", "6.6", D("01/01/2013"))
    return g


@pytest.fixture(scope="module")
def engine(graph):
    return RDFTX.from_graph(
        graph, config=MVBTConfig(block_capacity=8, weak_min=2, epsilon=1)
    )


class TestTemporalSelection:
    def test_example_1_when_query(self, engine):
        """Example 1: when did Napolitano serve as UC president."""
        result = engine.query(
            "SELECT ?t {UC president Janet_Napolitano ?t}"
        )
        assert len(result) == 1
        (row,) = result
        assert row["t"] == PeriodSet([Period(D("09/30/2013"), NOW)])

    def test_example_2_budget_2013(self, engine):
        """Example 2: budget of UC in 2013."""
        result = engine.query(
            "SELECT ?budget "
            "{UC budget ?budget ?t . FILTER(YEAR(?t) = 2013)}"
        )
        assert result.column("budget") == ["22.7"]

    def test_example_2_with_time_output(self, engine):
        result = engine.query(
            "SELECT ?budget ?t "
            "{UC budget ?budget ?t . FILTER(YEAR(?t) = 2013)}"
        )
        (row,) = result
        # The binding is restricted to 2013 (point-based semantics).
        assert row["t"] == PeriodSet(
            [Period(D("01/30/2013"), D("2014-01-01"))]
        )

    def test_example_3_long_presidency(self, engine):
        """Example 3: presidents before 2011 serving > 1 year."""
        result = engine.query(
            "SELECT ?person ?t "
            "{ UC president ?person ?t . "
            "FILTER(YEAR(?t) <= 2010 && LENGTH(?t) > 365 DAY)}"
        )
        # Yudof held office 2008-2013; restricted to <=2010 that's still
        # more than a year.  Napolitano (2013-) has no chronon <= 2010.
        assert result.column("person") == ["Mark_Yudof"]

    def test_time_travel_snapshot(self, engine):
        """Flash back to one day via a constant temporal element."""
        result = engine.query("SELECT ?o {UC president ?o 2010-05-01}")
        assert result.column("o") == ["Mark_Yudof"]

    def test_predicate_variable(self, engine):
        result = engine.query(
            "SELECT ?p ?v {UC ?p ?v 2014-01-15}"
        )
        got = dict(zip(result.column("p"), result.column("v")))
        assert got == {
            "president": "Janet_Napolitano",
            "endowment": "10.3",
            "undergraduate": "184562",
            "staff": "18896",
            "budget": "22.7",
        }

    def test_object_bound_pattern(self, engine):
        result = engine.query("SELECT ?s {?s president Mark_Schlissel ?t}")
        assert result.column("s") == ["UM"]

    def test_unknown_term_gives_empty(self, engine):
        result = engine.query("SELECT ?t {MIT president ?p ?t}")
        assert len(result) == 0


class TestTemporalJoin:
    def test_example_4_undergrads_during_yudof(self, engine):
        """Example 4: undergrad count while Yudof was in office."""
        result = engine.query(
            "SELECT ?university ?number ?t "
            "{?university undergraduate ?number ?t . "
            "?university president Mark_Yudof ?t . }"
        )
        (row,) = result
        assert row["university"] == "UC"
        assert row["number"] == "184562"
        # Overlap of undergrad [05/14/2013, 01/30/2015) and Yudof
        # [06/16/2008, 09/30/2013).
        assert row["t"] == PeriodSet(
            [Period(D("05/14/2013"), D("09/30/2013"))]
        )

    def test_three_way_join(self, engine):
        """Adding one more pattern, as the paper notes, is all it takes."""
        result = engine.query(
            "SELECT ?university ?number ?staff ?t "
            "{?university undergraduate ?number ?t . "
            "?university staff ?staff ?t . "
            "?university president Janet_Napolitano ?t . }"
        )
        rows = {(r["number"], r["staff"]) for r in result}
        assert rows == {("184562", "18896"), ("188300", "19700")}

    def test_example_5_succession(self, engine):
        """Example 5: who succeeded Mark Yudof."""
        result = engine.query(
            "SELECT ?successor "
            "{ UC president Mark_Yudof ?t1 . "
            "UC president ?successor ?t2 . "
            "FILTER(TEND(?t1) = TSTART(?t2)) . }"
        )
        assert result.column("successor") == ["Janet_Napolitano"]

    def test_join_without_temporal_overlap(self, engine):
        result = engine.query(
            "SELECT ?university "
            "{?university president Mark_Yudof ?t . "
            "?university president Mark_Schlissel ?t . }"
        )
        assert len(result) == 0

    def test_cross_university_same_period(self, engine):
        """Key + temporal join across subjects via shared ?t."""
        result = engine.query(
            "SELECT ?p1 ?p2 "
            "{UC president ?p1 ?t . UM president ?p2 ?t . "
            "FILTER(YEAR(?t) = 2013)}"
        )
        pairs = {(r["p1"], r["p2"]) for r in result}
        assert pairs == {
            ("Mark_Yudof", "Mary_Sue_Coleman"),
            ("Janet_Napolitano", "Mary_Sue_Coleman"),
        }


class TestEngineMaintenance:
    def test_incremental_updates_visible(self, graph):
        engine = RDFTX.from_graph(
            graph, config=MVBTConfig(block_capacity=8, weak_min=2, epsilon=1)
        )
        t = engine.horizon + 10
        engine.insert("UC", "chancellor", "Gene_Block", t)
        result = engine.query("SELECT ?o ?t {UC chancellor ?o ?t}")
        (row,) = result
        assert row["o"] == "Gene_Block"
        engine.delete("UC", "chancellor", "Gene_Block", t + 100)
        result = engine.query("SELECT ?o ?t {UC chancellor ?o ?t}")
        (row,) = result
        assert row["t"] == PeriodSet([Period(t, t + 100)])
        engine.check_invariants()

    def test_uncompressed_engine_agrees(self, graph):
        compressed = RDFTX.from_graph(graph, compress=True)
        plain = RDFTX.from_graph(graph, compress=False)
        q = "SELECT ?p ?v ?t {UC ?p ?v ?t . FILTER(YEAR(?t) = 2014)}"
        assert sorted(
            map(repr, compressed.query(q))
        ) == sorted(map(repr, plain.query(q)))

    def test_load_replaces_the_history(self, graph):
        """A second ``load`` answers wholly from the new graph.  It used
        to set the new dictionary, then fail part-way through the replay
        (``TimeOrderError``: the old history's watermark is later than the
        new graph's first event), leaving new ids over old trees."""
        from repro.optimizer import Optimizer

        engine = RDFTX.from_graph(graph, optimizer=Optimizer())
        later = TemporalGraph()
        later.add("Stanford", "president", "John_Hennessy", D("09/01/2000"),
                  D("09/01/2016"))
        later.add("Stanford", "president", "Marc_Tessier-Lavigne",
                  D("09/01/2016"))
        engine.load(later)
        engine.check_invariants()
        assert engine.history_rows() == RDFTX.from_graph(later).history_rows()
        result = engine.query("SELECT ?s ?o {?s president ?o ?t}")
        assert sorted((row["s"], row["o"]) for row in result) == [
            ("Stanford", "John_Hennessy"),
            ("Stanford", "Marc_Tessier-Lavigne"),
        ]
        assert not engine.query("SELECT ?o {UC president ?o ?t}")


class TestResultFormatting:
    def test_to_table(self, engine):
        result = engine.query(
            "SELECT ?t {UC president Janet_Napolitano ?t}"
        )
        table = result.to_table()
        assert "?t" in table
        assert "[09/30/2013 ... now]" in table

    def test_explain(self, engine):
        text = engine.explain(
            "SELECT ?university ?number ?t "
            "{?university undergraduate ?number ?t . "
            "?university president Mark_Yudof ?t . }"
        )
        assert "Plan:" in text
        assert "scan" in text

    def test_empty_result_table(self, engine):
        result = engine.query("SELECT ?t {UC president Nobody_Here ?t}")
        assert "?t" in result.to_table()
