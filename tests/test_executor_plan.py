"""Tests for plan construction, join ordering, and executor behaviors."""

import pytest

from repro.engine import RDFTX, default_order, execute, translate_pattern
from repro.engine.operators import apply_filters
from repro.engine.patterns import UnknownTermError, decode_key_to_spo
from repro.engine.plan import PlanGraph
from repro.model import NOW, Period, PeriodSet, TemporalGraph
from repro.optimizer import Optimizer
from repro.sparqlt import EvaluationError, parse, parse_expression


@pytest.fixture(scope="module")
def graph():
    g = TemporalGraph()
    g.add("a", "p", "x", 1, 10)
    g.add("a", "q", "y", 5, 20)
    g.add("b", "p", "x", 3, 8)
    g.add("b", "r", "z", 1, NOW)
    g.add("c", "q", "y", 2, 4)
    return g


@pytest.fixture(scope="module")
def engine(graph):
    return RDFTX.from_graph(graph)


class TestPatternTranslation:
    def test_index_choice_matrix(self, graph):
        cases = {
            "SELECT ?t {a p x ?t}": ("spo", "SPO"),
            "SELECT ?o {a p ?o ?t}": ("spo", "SP"),
            "SELECT ?p {a ?p x ?t}": ("spo", "SO"),
            "SELECT ?p ?o {a ?p ?o ?t}": ("spo", "S"),
            "SELECT ?s {?s p x ?t}": ("pos", "PO"),
            "SELECT ?s ?o {?s p ?o ?t}": ("pos", "P"),
            "SELECT ?s ?p {?s ?p x ?t}": ("ops", "O"),
            "SELECT ?s ?p ?o {?s ?p ?o ?t}": ("spo", ""),
        }
        for text, (order, ptype) in cases.items():
            query = parse(text)
            plan = translate_pattern(query.patterns[0], graph.dictionary)
            assert plan.index_order == order, text
            assert plan.pattern_type.replace("T", "") == ptype, text

    def test_subject_object_pattern_checks_the_object(self, graph, engine):
        """SO patterns scan SPO's subject prefix; the object is a key
        check, and the step still reads as the pattern it came from."""
        lookup = graph.dictionary.lookup
        query = parse("SELECT ?p {a ?p x ?t}")
        plan = translate_pattern(query.patterns[0], graph.dictionary)
        assert plan.key_low == (lookup("a"),)
        assert plan.key_check == (2, lookup("x"))
        assert "scan SPO {a ?p x ?t} type=SO time=" in engine.explain(
            "SELECT ?p {a ?p x ?t}")
        assert "scan SPO {a ?p x @4} type=SOT time=" in engine.explain(
            "SELECT ?p {a ?p x 1970-01-05}")
        with pytest.raises(UnknownTermError):
            translate_pattern(parse("SELECT ?p {a ?p nosuch ?t}").patterns[0],
                              graph.dictionary)

    def test_time_constant_pattern_type(self, graph):
        query = parse("SELECT ?o {a p ?o 1970-01-05}")
        plan = translate_pattern(query.patterns[0], graph.dictionary)
        assert plan.pattern_type == "SPT"
        assert plan.time_range == Period.point(4)

    def test_unknown_term_raises(self, graph):
        query = parse("SELECT ?t {nosuch p x ?t}")
        with pytest.raises(UnknownTermError):
            translate_pattern(query.patterns[0], graph.dictionary)

    def test_repeated_variable_slots(self, graph):
        query = parse("SELECT ?x {?x p ?x ?t}")
        plan = translate_pattern(query.patterns[0], graph.dictionary)
        assert plan.equal_slots  # the repeated ?x must be checked

    def test_window_intersection_from_filters(self, graph):
        query = parse(
            "SELECT ?o {a p ?o ?t . "
            "FILTER(?t >= 1970-01-03 && ?t <= 1970-01-06)}"
        )
        plan = translate_pattern(
            query.patterns[0], graph.dictionary, query.filter_conjuncts()
        )
        assert plan.time_range == Period(2, 6)

    def test_decode_key_roundtrip(self):
        assert decode_key_to_spo((7, 8, 9), "spo") == (7, 8, 9)
        assert decode_key_to_spo((8, 9, 7), "pos") == (7, 8, 9)
        assert decode_key_to_spo((9, 8, 7), "ops") == (7, 8, 9)
        with pytest.raises(KeyError):  # served by SPO, no tree of its own
            decode_key_to_spo((7, 9, 8), "sop")


class TestPlanGraph:
    def test_edges_from_shared_variables(self, graph):
        query = parse(
            "SELECT ?s {?s p ?o1 ?t . ?s q ?o2 ?t . ?x r ?o3 ?u}"
        )
        patterns = [
            translate_pattern(p, graph.dictionary) for p in query.patterns
        ]
        plan_graph = PlanGraph.build(query, patterns)
        assert (0, 1) in plan_graph.edges
        assert plan_graph.neighbors(2) == set()
        assert not plan_graph.connected({0, 1}, 2)
        assert plan_graph.connected(set(), 2)

    def test_describe_mentions_each_pattern(self, engine):
        text = engine.explain("SELECT ?s {?s p ?o ?t . ?s q ?o2 ?t}")
        assert text.count("scan") == 2


class TestDefaultOrder:
    def test_most_selective_first(self, graph):
        query = parse("SELECT ?s ?o {?s ?p ?o ?t . ?s p x ?t}")
        patterns = [
            translate_pattern(p, graph.dictionary) for p in query.patterns
        ]
        plan_graph = PlanGraph.build(query, patterns)
        assert default_order(plan_graph)[0] == 1

    def test_connectivity_preferred(self, graph):
        query = parse(
            "SELECT ?s {?s p x ?t . ?y q ?o ?u . ?s q ?o ?t2}"
        )
        patterns = [
            translate_pattern(p, graph.dictionary) for p in query.patterns
        ]
        plan_graph = PlanGraph.build(query, patterns)
        order = default_order(plan_graph)
        # After the anchor (0), its neighbor (2) comes before the island (1).
        assert order.index(2) < order.index(1)


class TestExecutorSemantics:
    def test_cross_product_when_disconnected(self, engine):
        result = engine.query(
            "SELECT ?o1 ?o2 {a p ?o1 ?t1 . b r ?o2 ?t2}"
        )
        assert len(result) == 1
        assert result.rows[0] == {"o1": "x", "o2": "z"}

    def test_join_on_term_only(self, engine):
        """Different temporal variables do not intersect periods."""
        result = engine.query(
            "SELECT ?s {?s p x ?t1 . ?s q y ?t2}"
        )
        assert sorted(result.column("s")) == ["a"]

    def test_join_on_shared_time(self, engine):
        result = engine.query("SELECT ?s ?t {?s p x ?t . ?s q y ?t}")
        (row,) = result
        assert row["s"] == "a"
        assert row["t"] == PeriodSet([Period(5, 10)])

    def test_filter_on_join_result(self, engine):
        result = engine.query(
            "SELECT ?s {?s p x ?t . ?s q y ?t . FILTER(LENGTH(?t) > 10)}"
        )
        assert len(result) == 0

    def test_projection_deduplicates(self, engine):
        result = engine.query("SELECT ?p {?s ?p x ?t}")
        assert sorted(result.column("p")) == ["p"]

    def test_select_unbound_variable_is_none(self, engine):
        result = engine.query("SELECT ?ghost {a p ?o ?t}")
        assert result.rows[0]["ghost"] is None

    def test_empty_scan_short_circuits(self, engine):
        result = engine.query(
            "SELECT ?s {?s p nosuchvalue ?t . ?s q ?o ?t}"
        )
        assert len(result) == 0


class TestQueryResult:
    def test_bool_len_iter(self, engine):
        result = engine.query("SELECT ?o {a p ?o ?t}")
        assert result
        assert len(result) == 1
        assert list(result) == result.rows

    def test_column_missing_key_raises(self, engine):
        result = engine.query("SELECT ?o {a p ?o ?t}")
        with pytest.raises(KeyError):
            result.column("nope")


@pytest.fixture(scope="module")
def joined():
    """``x``'s two facts overlap on [1900, 2000): a join on ?t narrows the
    first pattern's [1000, 2000) to that."""
    g = TemporalGraph()
    g.add("x", "p1", "alpha", 1000, 2000)
    g.add("x", "p2", "beta", 1900, 6000)
    return g


class TestFilterRules:
    """The three filter rules every evaluator shares."""

    JOIN = "SELECT ?a {x p1 ?a ?t . x p2 ?b ?t . FILTER(%s)}"

    def test_temporal_predicate_runs_after_the_last_binder(self, joined):
        plan = RDFTX.from_graph(joined).compile(
            "SELECT ?a {x p1 ?a ?t . x p2 ?b ?t . "
            "FILTER(LENGTH(?t) < 200) FILTER(YEAR(?t) = 1975)}"
        ).group.base
        first, second = plan.steps
        assert not plan.sync
        # A restriction commutes with the join's intersection: step 1.
        assert first.filters == (parse_expression("YEAR(?t) = 1975"),)
        assert second.filters == (parse_expression("LENGTH(?t) < 200"),)

    def test_length_sees_the_joined_period(self, joined):
        result = RDFTX.from_graph(joined).query(
            self.JOIN % "LENGTH(?t) < 200"
        )
        assert result.column("a") == ["alpha"]

    def test_tstart_is_order_independent(self, joined):
        text = self.JOIN % "TSTART(?t) < 1500"
        plain = RDFTX.from_graph(joined)
        optimized = RDFTX.from_graph(joined, optimizer=Optimizer())
        assert plain.query(text).rows == optimized.query(text).rows == []
        query = parse(text)
        plans = [translate_pattern(p, plain.dictionary,
                                   query.filter_conjuncts())
                 for p in query.patterns]
        graph = PlanGraph.build(query, plans)
        for order in ([0, 1], [1, 0]):
            assert execute(graph, plain.indexes, plain.dictionary,
                           plain.horizon, order) == []

    @pytest.mark.parametrize("text", [
        "SELECT ?x {?x p ?o ?t . FILTER(?q = 1)}",
        "SELECT ?x { {?x p ?o ?t . FILTER(?q = 1)} UNION {?x r ?o ?t} }",
        "SELECT ?x {?x p ?o ?t . OPTIONAL {?x r ?m ?t2 . "
        "FILTER(YEAR(?q) = 2000)}}",
    ])
    def test_unbound_filter_variable_is_a_parse_error(self, text):
        with pytest.raises(EvaluationError, match=r"\?q"):
            parse(text)

    def test_type_error_rejects_the_row(self, joined):
        engine = RDFTX.from_graph(joined)
        for text in (self.JOIN % "YEAR(?a) = 1975",
                     "SELECT ?a {x p1 ?a ?t . FILTER(YEAR(?a) = 1975)}",
                     "SELECT ?a {x p1 ?a ?t . FILTER(?a > 3)}"):
            assert engine.query(text).rows == [], text

    def test_unbound_row_is_rejected_not_raised(self):
        rows = [{"m": "artes"}, {}]
        kept = apply_filters(rows, [parse_expression("?m = artes")],
                             None, 1)
        assert list(kept) == [{"m": "artes"}]
