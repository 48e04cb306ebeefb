"""UNION and OPTIONAL — the paper's declared future work, implemented.

Section 3.1: "(P UNION P') and (P OPT P') are not supported in current
SPARQLT, and their implementation is planned for the future."  This module
tests the implementation of exactly that plan.
"""

import pytest

from repro.engine import RDFTX
from repro.model import Period, PeriodSet, TemporalGraph, date_to_chronon
from repro.sparqlt import ParseError, parse

D = date_to_chronon


@pytest.fixture(scope="module")
def engine():
    g = TemporalGraph()
    g.add("uc", "president", "yudof", D("2008-06-16"), D("2013-09-30"))
    g.add("uc", "president", "napolitano", D("2013-09-30"))
    g.add("uc", "chancellor", "block", D("2007-08-01"))
    g.add("um", "president", "coleman", D("2002-08-01"), D("2014-07-01"))
    g.add("um", "motto", "artes_scientia_veritas", D("2000-01-01"))
    g.add("lonely", "founded", "1901", D("2000-01-01"))
    return RDFTX.from_graph(g)


class TestParsing:
    def test_union_parses(self):
        q = parse("SELECT ?x { {?x president ?p ?t} UNION {?x motto ?m ?t} }")
        assert len(q.group.unions) == 1
        assert len(q.group.unions[0]) == 2

    def test_chained_union(self):
        q = parse(
            "SELECT ?x { {?x a ?v ?t} UNION {?x b ?v ?t} UNION {?x c ?v ?t} }"
        )
        assert len(q.group.unions[0]) == 3

    def test_optional_parses(self):
        q = parse(
            "SELECT ?x ?m {?x president ?p ?t . OPTIONAL {?x motto ?m ?t2}}"
        )
        assert len(q.group.optionals) == 1
        assert q.group.patterns  # the base pattern stays in the group

    def test_nested_optional_in_union(self):
        q = parse(
            "SELECT ?x { {?x a ?v ?t . OPTIONAL {?x b ?w ?t}} "
            "UNION {?x c ?v ?t} }"
        )
        assert q.group.unions[0][0].optionals

    def test_lone_braced_group_is_nested_join(self, engine):
        nested = engine.query("SELECT ?x { {?x president ?p ?t} }")
        plain = engine.query("SELECT ?x {?x president ?p ?t}")
        assert sorted(nested.column("x")) == sorted(plain.column("x"))

    def test_plain_queries_stay_simple(self):
        group = parse("SELECT ?t {uc president ?p ?t}").group
        assert not group.unions and not group.optionals


class TestUnionSemantics:
    def test_union_of_predicates(self, engine):
        result = engine.query(
            "SELECT ?who { {uc president ?who ?t} UNION "
            "{uc chancellor ?who ?t} }"
        )
        assert sorted(result.column("who")) == [
            "block", "napolitano", "yudof",
        ]

    def test_union_joined_with_base_pattern(self, engine):
        result = engine.query(
            "SELECT ?x ?leader {?x president ?leader ?t . "
            "{ {?x chancellor ?c ?t2} UNION {?x motto ?m ?t2} } }"
        )
        # uc has a chancellor, um has a motto; lonely matches nothing.
        assert sorted(set(result.column("x"))) == ["uc", "um"]

    def test_union_branch_filters_are_local(self, engine):
        result = engine.query(
            "SELECT ?who { "
            "{uc president ?who ?t . FILTER(YEAR(?t) = 2010)} UNION "
            "{uc president ?who ?t . FILTER(YEAR(?t) = 2014)} }"
        )
        assert sorted(result.column("who")) == ["napolitano", "yudof"]

    def test_union_with_shared_temporal_join(self, engine):
        result = engine.query(
            "SELECT ?who ?t {uc president ?who ?t . "
            "{ {um president coleman ?t} UNION {um motto ?m ?t} } }"
        )
        by_who = {r["who"]: r["t"] for r in result}
        # Napolitano overlaps Coleman only until 2014-07-01 via branch 1,
        # and the motto period (live) via branch 2 -> coalesced whole term.
        assert by_who["napolitano"].first() == D("2013-09-30")

    def test_empty_union_branch_ok(self, engine):
        result = engine.query(
            "SELECT ?who { {uc president ?who ?t} UNION "
            "{uc nosuchpredicate ?who ?t} }"
        )
        assert sorted(result.column("who")) == ["napolitano", "yudof"]


class TestOptionalSemantics:
    def test_optional_extends_when_present(self, engine):
        result = engine.query(
            "SELECT ?x ?p ?m {?x president ?p ?t . "
            "OPTIONAL {?x motto ?m ?t2}}"
        )
        rows = {(r["x"], r["m"]) for r in result}
        assert ("um", "artes_scientia_veritas") in rows
        assert ("uc", None) in rows  # no motto: kept, unbound

    def test_optional_never_removes_rows(self, engine):
        with_opt = engine.query(
            "SELECT ?x {?x president ?p ?t . OPTIONAL {?x motto ?m ?t2}}"
        )
        without = engine.query("SELECT ?x {?x president ?p ?t}")
        assert sorted(with_opt.column("x")) == sorted(without.column("x"))

    def test_optional_temporal_intersection(self, engine):
        result = engine.query(
            "SELECT ?x ?p ?c ?t {?x president ?p ?t . "
            "OPTIONAL {?x chancellor ?c ?t}}"
        )
        uc_rows = [r for r in result if r["x"] == "uc"]
        for row in uc_rows:
            assert row["c"] == "block"
            # Shared ?t intersects with the chancellorship.
            assert row["t"].first() >= D("2007-08-01")
        um_rows = [r for r in result if r["x"] == "um"]
        assert all(r["c"] is None for r in um_rows)

    def test_filter_on_optional_variable_rejects_unbound(self, engine):
        result = engine.query(
            "SELECT ?x ?m {?x president ?p ?t . "
            "OPTIONAL {?x motto ?m ?t2} . FILTER(?m = artes_scientia_veritas)}"
        )
        assert result.column("x") == ["um"]

    def test_optional_rendering(self, engine):
        result = engine.query(
            "SELECT ?x ?m {?x president ?p ?t . OPTIONAL {?x motto ?m ?t2}}"
        )
        assert "-" in result.to_table()  # unbound renders as a dash
