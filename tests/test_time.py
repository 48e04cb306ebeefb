"""Tests for the temporal domain (repro.model.time)."""

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.time import (
    MIN_TIME,
    NOW,
    Period,
    PeriodSet,
    TimeError,
    chronon_to_date,
    date_to_chronon,
    day_of,
    format_chronon,
    month_of,
    month_range,
    year_of,
    year_range,
)


class TestChronons:
    def test_epoch_is_zero(self):
        assert date_to_chronon(datetime.date(1970, 1, 1)) == 0

    def test_iso_string(self):
        assert date_to_chronon("1970-01-02") == 1

    def test_us_string_matches_paper_notation(self):
        assert date_to_chronon("01/02/1970") == 1

    def test_now_string(self):
        assert date_to_chronon("now") == NOW

    def test_bad_string_raises(self):
        with pytest.raises(TimeError):
            date_to_chronon("soon")

    @pytest.mark.parametrize("literal, chronon", [
        ("2008-06-16", 14046), ("1970-01-01", 0), ("1969-12-31", -1),
        ("2008-02-29", 13938), ("9999-12-31", 2932896),
        ("2008-6-16", 14046), ("2008-06-1", 14031), ("2008-06- 6", 14036),
        (" 2008-06-16 ", 14046), ("06/16/2008", 14046),
        ("6/16/2008", 14046), ("NOW", NOW), (" Now ", NOW),
    ])
    def test_accepted_literals(self, literal, chronon):
        # pinned from the strptime-only parser: the ISO fast path must
        # accept exactly what that one did
        assert date_to_chronon(literal) == chronon

    @pytest.mark.parametrize("literal", [
        "20080616", "2008-W24-1", "2008-06-31", "2008-13-01", "0000-01-01",
        "2009-02-29", "2008/06/16", "16/06/2008", "2008-06-16T00:00", "",
        "someday", "\u0662\u0660\u0660\u0668-\u0660\u0666-\u0661\u0666",
        "2008-06-16x", "+008-06-16", "2008--6-16",
    ])
    def test_rejected_literals(self, literal):
        with pytest.raises(TimeError):
            date_to_chronon(literal)

    def test_roundtrip(self):
        day = date_to_chronon("2013-09-30")
        assert chronon_to_date(day) == datetime.date(2013, 9, 30)

    def test_now_has_no_date(self):
        with pytest.raises(TimeError):
            chronon_to_date(NOW)

    def test_format(self):
        assert format_chronon(date_to_chronon("2013-09-30")) == "09/30/2013"
        assert format_chronon(NOW) == "now"

    @given(st.integers(min_value=0, max_value=60000))
    def test_date_roundtrip_property(self, chronon):
        assert date_to_chronon(chronon_to_date(chronon)) == chronon

    def test_calendar_functions(self):
        day = date_to_chronon("2013-09-30")
        assert year_of(day) == 2013
        assert month_of(day) == 9
        assert day_of(day) == 30

    def test_year_range_covers_whole_year(self):
        period = year_range(2012)  # leap year
        assert period.length() == 366
        assert year_of(period.first) == 2012
        assert year_of(period.last) == 2012

    def test_month_range(self):
        period = month_range(2013, 12)
        assert period.length() == 31
        assert month_of(period.first) == 12


class TestPeriod:
    def test_rejects_empty(self):
        with pytest.raises(TimeError):
            Period(5, 5)

    def test_rejects_inverted(self):
        with pytest.raises(TimeError):
            Period(7, 3)

    def test_from_closed(self):
        period = Period.from_closed(3, 7)
        assert period.start == 3 and period.end == 8
        assert period.first == 3 and period.last == 7

    def test_from_closed_live(self):
        period = Period.from_closed(3, NOW)
        assert period.is_live
        assert period.last == NOW

    def test_point(self):
        period = Period.point(9)
        assert period.length() == 1
        assert period.contains(9)
        assert not period.contains(10)

    def test_overlaps(self):
        assert Period(1, 5).overlaps(Period(4, 9))
        assert not Period(1, 5).overlaps(Period(5, 9))

    def test_meets(self):
        assert Period(1, 5).meets(Period(5, 9))
        assert not Period(1, 5).meets(Period(6, 9))

    def test_intersect(self):
        assert Period(1, 5).intersect(Period(3, 9)) == Period(3, 5)
        assert Period(1, 5).intersect(Period(5, 9)) is None

    def test_contains_operator(self):
        assert 3 in Period(1, 5)
        assert 5 not in Period(1, 5)

    def test_str_uses_paper_notation(self):
        period = Period.from_closed(
            date_to_chronon("2013-09-30"), NOW
        )
        assert str(period) == "[09/30/2013 ... now]"


@st.composite
def period_lists(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    periods = []
    for _ in range(n):
        start = draw(st.integers(min_value=0, max_value=200))
        length = draw(st.integers(min_value=1, max_value=50))
        periods.append(Period(start, start + length))
    return periods


class TestPeriodSet:
    def test_empty(self):
        ps = PeriodSet()
        assert ps.is_empty
        assert ps.total_length() == 0
        assert ps.max_length() == 0

    def test_coalesces_adjacent(self):
        ps = PeriodSet([Period(1, 5), Period(5, 9)])
        assert ps.periods == (Period(1, 9),)

    def test_coalesces_overlapping(self):
        ps = PeriodSet([Period(1, 6), Period(4, 9), Period(20, 30)])
        assert ps.periods == (Period(1, 9), Period(20, 30))

    def test_first_last(self):
        ps = PeriodSet([Period(10, 20), Period(1, 5)])
        assert ps.first() == 1
        assert ps.last() == 19

    def test_first_of_empty_raises(self):
        with pytest.raises(TimeError):
            PeriodSet().first()

    def test_lengths(self):
        ps = PeriodSet([Period(1, 5), Period(10, 30)])
        assert ps.max_length() == 20
        assert ps.total_length() == 24

    def test_intersect(self):
        a = PeriodSet([Period(1, 10), Period(20, 30)])
        b = PeriodSet([Period(5, 25)])
        assert a.intersect(b).periods == (Period(5, 10), Period(20, 25))

    def test_union(self):
        a = PeriodSet([Period(1, 5)])
        b = PeriodSet([Period(5, 9)])
        assert a.union(b).periods == (Period(1, 9),)

    def test_restrict(self):
        ps = PeriodSet([Period(1, 10), Period(20, 30)])
        assert ps.restrict(Period(5, 22)).periods == (
            Period(5, 10),
            Period(20, 22),
        )

    @given(period_lists(), period_lists())
    def test_intersect_matches_chronon_sets(self, left, right):
        a, b = PeriodSet(left), PeriodSet(right)
        chronons_a = {t for p in left for t in range(p.start, p.end)}
        chronons_b = {t for p in right for t in range(p.start, p.end)}
        expected = chronons_a & chronons_b
        got = {
            t
            for p in a.intersect(b)
            for t in range(p.start, p.end)
        }
        assert got == expected

    @given(period_lists())
    def test_coalescing_is_canonical(self, periods):
        ps = PeriodSet(periods)
        # Disjoint, ordered, non-adjacent.
        for prev, cur in zip(ps.periods, ps.periods[1:]):
            assert prev.end < cur.start
        # Same chronon set as the input.
        raw = {t for p in periods for t in range(p.start, p.end)}
        got = {t for p in ps for t in range(p.start, p.end)}
        assert got == raw

    def test_hashable_and_eq(self):
        a = PeriodSet([Period(1, 5), Period(3, 9)])
        b = PeriodSet([Period(1, 9)])
        assert a == b
        assert hash(a) == hash(b)
