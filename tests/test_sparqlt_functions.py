"""Tests for SPARQLT filter semantics (restrictions, built-ins, booleans)."""

import pytest

from repro.model.time import NOW, Period, PeriodSet, date_to_chronon, year_range
from repro.sparqlt import EvaluationError, parse_expression
from repro.sparqlt.functions import (
    _as_number,
    evaluate,
    eval_value,
    pushdown_window,
    restrict,
    restriction_target,
)

D = date_to_chronon
HORIZON = D("2016-01-01")


def ps(*pairs):
    return PeriodSet([Period(a, b) for a, b in pairs])


class TestRestrictionTarget:
    def test_year_restriction(self):
        expr = parse_expression("YEAR(?t) = 2013")
        assert restriction_target(expr) == "t"

    def test_plain_comparison(self):
        assert restriction_target(parse_expression("?t <= 01/01/2013")) == "t"

    def test_flipped(self):
        assert restriction_target(parse_expression("2013 >= YEAR(?t)")) == "t"

    def test_non_restrictions(self):
        assert restriction_target(parse_expression("LENGTH(?t) > 10")) is None
        assert restriction_target(parse_expression("TSTART(?t) = TEND(?u)")) is None
        assert restriction_target(parse_expression("?a = ?b")) is None


class TestRestrict:
    def test_year_equals(self):
        periods = ps((D("2012-06-01"), D("2014-06-01")))
        expr = parse_expression("YEAR(?t) = 2013")
        got = restrict(expr, periods, HORIZON)
        assert got == PeriodSet([year_range(2013)])

    def test_year_lte(self):
        periods = ps((D("2012-06-01"), D("2014-06-01")))
        got = restrict(parse_expression("YEAR(?t) <= 2012"), periods, HORIZON)
        assert got == ps((D("2012-06-01"), D("2013-01-01")))

    def test_chronon_comparison(self):
        periods = ps((10, 50))
        got = restrict(parse_expression("?t > 01/20/1970"), periods, HORIZON)
        assert got == ps((20, 50))

    def test_month_restriction(self):
        periods = ps((D("2013-01-15"), D("2013-04-10")))
        got = restrict(parse_expression("MONTH(?t) = 2"), periods, HORIZON)
        assert got == ps((D("2013-02-01"), D("2013-03-01")))

    def test_day_restriction(self):
        periods = ps((D("2013-01-30"), D("2013-02-03")))
        got = restrict(parse_expression("DAY(?t) = 1"), periods, HORIZON)
        assert got == PeriodSet([Period.point(D("2013-02-01"))])

    def test_live_period_clipped_for_calendar(self):
        periods = PeriodSet([Period(D("2015-12-01"), NOW)])
        got = restrict(parse_expression("MONTH(?t) = 12"), periods, HORIZON)
        assert got == ps((D("2015-12-01"), D("2016-01-01")))

    def test_not_a_restriction_raises(self):
        with pytest.raises(EvaluationError):
            restrict(parse_expression("LENGTH(?t) > 10"), ps((1, 5)), HORIZON)


class TestPushdownWindow:
    def test_year(self):
        window = pushdown_window(parse_expression("YEAR(?t) = 2013"))
        assert window == year_range(2013)

    def test_before(self):
        window = pushdown_window(parse_expression("?t <= 01/01/2013"))
        assert window == Period(0, D("2013-01-01") + 1)

    def test_month_gives_none(self):
        assert pushdown_window(parse_expression("MONTH(?t) = 2")) is None

    def test_non_restriction_gives_none(self):
        assert pushdown_window(parse_expression("LENGTH(?t) > 10")) is None
        assert pushdown_window(parse_expression("?a = 3")) is None


class TestBuiltins:
    def test_tstart_tend(self):
        row = {"t": ps((10, 20), (30, 40))}
        assert eval_value(parse_expression("TSTART(?t)"), row, HORIZON) == 10
        # TEND is exclusive: the first chronon after the set (see module
        # docs — this is what makes the paper's Example 5 match its data).
        assert eval_value(parse_expression("TEND(?t)"), row, HORIZON) == 40

    def test_tend_live(self):
        row = {"t": PeriodSet([Period(10, NOW)])}
        assert eval_value(parse_expression("TEND(?t)"), row, HORIZON) == NOW

    def test_length_max_duration(self):
        """LENGTH returns the max duration across intervals (Sec 3.1)."""
        row = {"t": ps((10, 20), (30, 70))}
        assert eval_value(parse_expression("LENGTH(?t)"), row, HORIZON) == 40

    def test_total_length(self):
        row = {"t": ps((10, 20), (30, 70))}
        assert (
            eval_value(parse_expression("TOTAL_LENGTH(?t)"), row, HORIZON) == 50
        )

    def test_length_clips_live_to_horizon(self):
        row = {"t": PeriodSet([Period(HORIZON - 100, NOW)])}
        assert eval_value(parse_expression("LENGTH(?t)"), row, HORIZON) == 100

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError):
            eval_value(parse_expression("LENGTH(?missing)"), {}, HORIZON)


class TestEvaluate:
    def test_example_3_combined(self):
        """YEAR(?t) <= 2010 && LENGTH(?t) > 365 DAY over a long presidency."""
        expr = parse_expression("YEAR(?t) <= 2010 && LENGTH(?t) > 365 DAY")
        long_presidency = {
            "t": ps((D("2005-01-01"), D("2010-06-01")))
        }
        short_presidency = {
            "t": ps((D("2010-01-01"), D("2010-06-01")))
        }
        assert evaluate(expr, long_presidency, HORIZON)
        # The short presidency satisfies the YEAR conjunct (existentially)
        # but fails LENGTH > 365.
        assert not evaluate(expr, short_presidency, HORIZON)

    def test_succession_meet(self):
        expr = parse_expression("TEND(?t1) = TSTART(?t2)")
        row = {"t1": ps((10, 20)), "t2": ps((20, 40))}
        assert evaluate(expr, row, HORIZON)
        row2 = {"t1": ps((10, 20)), "t2": ps((25, 40))}
        assert not evaluate(expr, row2, HORIZON)

    def test_tend_is_exclusive_for_meet(self):
        """TEND returns the half-open end, making Example 5 match Table 2."""
        expr = parse_expression("TEND(?t1) = TSTART(?t2)")
        assert evaluate(expr, {"t1": ps((10, 20)), "t2": ps((20, 30))}, HORIZON)
        assert not evaluate(
            expr, {"t1": ps((10, 19)), "t2": ps((20, 30))}, HORIZON
        )

    def test_boolean_connectives(self):
        row = {"a": "x", "b": "5"}
        assert evaluate(parse_expression('?a = "x" && ?b = 5'), row, HORIZON)
        assert evaluate(parse_expression('?a = "y" || ?b = 5'), row, HORIZON)
        assert evaluate(parse_expression('!(?a = "y")'), row, HORIZON)

    def test_numeric_coercion(self):
        row = {"budget": "22.7"}
        assert evaluate(parse_expression("?budget > 20"), row, HORIZON)
        assert not evaluate(parse_expression("?budget > 25"), row, HORIZON)

    def test_non_numeric_coercion_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(parse_expression("?name > 20"), {"name": "Bob"}, HORIZON)

    def test_existential_point_comparison(self):
        expr = parse_expression("?t = 01/15/1970")
        assert evaluate(expr, {"t": ps((10, 20))}, HORIZON)
        assert not evaluate(expr, {"t": ps((20, 30))}, HORIZON)

    def test_temporal_var_equality(self):
        expr = parse_expression("?t1 = ?t2")
        assert evaluate(expr, {"t1": ps((10, 20)), "t2": ps((15, 30))}, HORIZON)
        assert not evaluate(
            expr, {"t1": ps((10, 20)), "t2": ps((25, 30))}, HORIZON
        )


class TestNumericTerms:
    """A term compares as a number only when it is an ASCII XSD integer,
    decimal or double numeral."""

    @pytest.mark.parametrize("text, value", [
        ("1000", 1000), ("+1000", 1000), ("-7", -7), ("007", 7),
        ("1000.0", 1000.0), ("5.", 5.0), (".5", 0.5), ("-0.25", -0.25),
        ("1e3", 1000.0), ("1.5E-2", 0.015), ("+2e+1", 20.0),
    ])
    def test_numerals(self, text, value):
        got = _as_number(text)
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("text", [
        "1_000", " 1000", "1000 ", "1000\n", "１０００", "١٠٠٠", "nan", "NaN",
        "inf", "-inf", "Infinity", "INF", "0x10", "1e", "e3", ".", "+",
        "", "1.2.3", "1,000",
    ])
    def test_other_spellings_are_not_numbers(self, text):
        with pytest.raises(EvaluationError):
            _as_number(text)

    def test_a_filter_matches_only_numerals_of_the_value(self):
        from repro.engine import RDFTX
        from repro.model import TemporalGraph

        graph = TemporalGraph()
        spellings = ["1000", "+1000", "1000.0", "1_000", " 1000", "１０００",
                     "nan", "1000 "]
        for i, text in enumerate(spellings):
            graph.add(f"s{i}", "p", text, 1, 5)
        engine = RDFTX.from_graph(graph)
        rows = engine.query("SELECT ?o {?s p ?o ?t . FILTER(?o = 1000)}")
        assert sorted(rows.column("o")) == ["+1000", "1000", "1000.0"]
