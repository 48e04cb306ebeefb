"""Tests for the SPARQLT lexer and parser."""

import sys

import pytest
from hypothesis import given, settings

from repro.engine.engine import RDFTX
from repro.model.graph import TemporalGraph
from repro.model.time import date_to_chronon
from repro.sparqlt import (
    And,
    Compare,
    FuncCall,
    LexError,
    Literal,
    Not,
    Or,
    ParseError,
    TermConst,
    TimeConst,
    Var,
    parse,
    parse_expression,
    tokenize,
)
from repro.sparqlt.parser import MAX_DEPTH, unparse

from tests.sparqlt_strategies import queries


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("SELECT ?t { a b c ?t }")]
        assert kinds == [
            "KEYWORD",
            "VAR",
            "PUNCT",
            "IDENT",
            "IDENT",
            "IDENT",
            "VAR",
            "PUNCT",
            "EOF",
        ]

    def test_dates(self):
        tokens = tokenize("2013-01-05 09/30/2013")
        assert [t.kind for t in tokens[:-1]] == ["DATE_ISO", "DATE_US"]

    def test_operators(self):
        tokens = tokenize("<= >= != = < > && || !")
        assert all(t.kind == "OP" for t in tokens[:-1])

    def test_functions_case_insensitive(self):
        tokens = tokenize("year(?t) TSTART(?t)")
        assert tokens[0].kind == "FUNC" and tokens[0].text == "YEAR"
        assert tokens[4].kind == "FUNC" and tokens[4].text == "TSTART"

    def test_string_literal(self):
        token = tokenize('"University of California"')[0]
        assert token.kind == "STRING"

    def test_garbage_raises(self):
        with pytest.raises(LexError):
            tokenize("SELECT @t")


class TestParser:
    def test_example_1_when_query(self):
        """Paper Example 1."""
        q = parse(
            "SELECT ?t "
            "{University_of_California president Janet_Napolitano ?t}"
        )
        assert q.select == ["t"]
        (p,) = q.patterns
        assert p.subject == TermConst("University_of_California")
        assert p.predicate == TermConst("president")
        assert p.object == TermConst("Janet_Napolitano")
        assert p.time == Var("t")
        assert p.constant_positions() == "SPO"

    def test_example_2_filter(self):
        """Paper Example 2."""
        q = parse(
            "SELECT ?budget "
            "{University_of_California budget ?budget ?t . "
            "FILTER(YEAR(?t) = 2013) }"
        )
        assert len(q.patterns) == 1
        (f,) = q.filters
        assert f == Compare("=", FuncCall("YEAR", Var("t")), Literal(2013, "number"))

    def test_example_3_duration(self):
        """Paper Example 3: LENGTH with a duration literal."""
        q = parse(
            "SELECT ?person ?t "
            "{ University_of_California president ?person ?t . "
            "FILTER(YEAR(?t) <= 2010 && LENGTH(?t) > 365 DAY)}"
        )
        (f,) = q.filters
        assert isinstance(f, And)
        assert f.right == Compare(
            ">", FuncCall("LENGTH", Var("t")), Literal(365, "duration")
        )

    def test_example_4_temporal_join(self):
        """Paper Example 4: shared temporal variable."""
        q = parse(
            "SELECT ?university ?number ?t "
            "{?university undergraduate ?number ?t . "
            "?university president Mark_Yudof ?t . }"
        )
        assert len(q.patterns) == 2
        assert q.patterns[0].variables() == {"university", "number", "t"}
        assert q.patterns[1].variables() == {"university", "t"}

    def test_example_5_succession(self):
        """Paper Example 5: TEND(?t1) = TSTART(?t2)."""
        q = parse(
            "SELECT ?successor "
            "{ University_of_California president Mark_Yudof ?t1 . "
            "University_of_California president ?successor ?t2 . "
            "FILTER(TEND(?t1) = TSTART(?t2)) . }"
        )
        (f,) = q.filters
        assert f == Compare(
            "=", FuncCall("TEND", Var("t1")), FuncCall("TSTART", Var("t2"))
        )

    def test_time_constant_pattern(self):
        q = parse("SELECT ?o {UC budget ?o 2013-05-01}")
        (p,) = q.patterns
        assert p.time == TimeConst(date_to_chronon("2013-05-01"))
        assert p.constant_positions() == "SPT"

    def test_where_keyword_optional(self):
        q = parse("SELECT ?o WHERE {UC budget ?o ?t}")
        assert len(q.patterns) == 1

    def test_duration_units(self):
        expr = parse_expression("LENGTH(?t) > 2 YEAR")
        assert expr.right == Literal(730, "duration")
        expr = parse_expression("LENGTH(?t) >= 3 MONTH")
        assert expr.right == Literal(90, "duration")

    def test_year_as_function_not_unit(self):
        expr = parse_expression("YEAR(?t) = 2013")
        assert expr.left == FuncCall("YEAR", Var("t"))

    def test_boolean_precedence(self):
        expr = parse_expression("?a = 1 || ?b = 2 && ?c = 3")
        # AND binds tighter than OR.
        assert isinstance(expr, Or)
        assert isinstance(expr.right, And)

    def test_negation(self):
        expr = parse_expression("!(?a = 1)")
        assert isinstance(expr, Not)

    def test_parenthesized(self):
        expr = parse_expression("(?a = 1 || ?b = 2) && ?c = 3")
        assert isinstance(expr, And)
        assert isinstance(expr.left, Or)

    def test_date_comparison(self):
        expr = parse_expression("?t <= 01/01/2013")
        assert expr.right == Literal(date_to_chronon("2013-01-01"), "date")

    def test_string_object(self):
        q = parse('SELECT ?t {UC motto "Fiat Lux" ?t}')
        assert q.patterns[0].object == TermConst("Fiat Lux")

    def test_a_term_spelled_like_a_function_keeps_its_spelling(self):
        q = parse("SELECT ?o {year DAY ?o ?t . FILTER(year(?t) = 2)}")
        assert q.patterns[0].subject == TermConst("year")
        assert q.patterns[0].predicate == TermConst("DAY")
        assert q.filters[0].left == FuncCall("YEAR", Var("t"))
        graph = TemporalGraph()
        graph.add("year", "p", "o", 1, 5)
        graph.add("YEAR", "p", "other", 1, 5)
        engine = RDFTX.from_graph(graph)
        for subject in ("year", '"year"'):
            result = engine.query(f"SELECT ?o {{{subject} p ?o ?t}}")
            assert result.column("o") == ["o"], subject

    def test_errors(self):
        with pytest.raises(ParseError):
            parse("SELECT {UC a b ?t}")  # no select vars
        with pytest.raises(ParseError):
            parse("SELECT ?t {UC a b ?t")  # missing brace
        with pytest.raises(ParseError):
            parse("SELECT ?t { }")  # no pattern
        with pytest.raises(ParseError):
            parse("SELECT ?t {UC a b 42}")  # bad time term
        with pytest.raises(ParseError):
            parse("SELECT ?t {UC a b ?t} extra")



_HEAD = "SELECT ?o {UC president ?o ?t "


def _filter(expr: str) -> str:
    return f"{_HEAD}FILTER({expr})}}"


#: Where a FILTER's expression starts, and how many nesting levels are
#: left for it once the query's own group has taken one.
_EXPR = len(_HEAD) + len("FILTER(")
_ROOM = MAX_DEPTH - 1


class TestDepth:
    """Nesting past MAX_DEPTH is a ParseError with an offset, never a
    RecursionError, whatever builds the depth."""

    @pytest.mark.parametrize("query, offset", [
        # 400 parentheses, under 1 kB of query: RecursionError before
        (_filter("(" * 400 + "?o = 1" + ")" * 400), _EXPR + _ROOM),
        (_filter("!" * 400 + "(?o = 1)"), _EXPR + _ROOM),
        (_filter("YEAR(" * 400 + "?t" + ")" * 400 + " = 1"),
         _EXPR + len("YEAR(") * _ROOM),
        # a left-deep chain recurses only once the tree is walked
        (_filter(" && ".join(["?o = 1"] * 3000)), _EXPR),
        (_filter(" || ".join(["?o = 1"] * 65)), _EXPR),
        ("SELECT ?o {" + "{" * 1000 + "UC president ?o ?t" + "}" * 1000
         + "}", len("SELECT ?o {") + _ROOM),
        (_HEAD + "OPTIONAL {" * 100 + "UC b ?o ?t" + "}" * 101,
         len(_HEAD) + len("OPTIONAL {") * (_ROOM + 1) - 1),
    ])
    def test_too_deep_is_a_parse_error_at_an_offset(self, query, offset):
        with pytest.raises(ParseError) as caught:
            parse(query)
        assert str(caught.value).endswith(
            f"deeper than {MAX_DEPTH} levels at offset {offset}")

    def test_the_cap_itself_parses(self):
        # one level goes to the query's own group
        parse(_filter("(" * _ROOM + "?o = 1" + ")" * _ROOM))
        parse(_filter(" && ".join(["?o = 1"] * _ROOM)))
        # MAX_DEPTH - 2 negations over a comparison of two leaves
        assert isinstance(
            parse_expression("!" * (MAX_DEPTH - 2) + "(?o = 1)"), Not)

    def test_the_deepest_texts_unparse_within_the_cap(self):
        for text in (
            _filter("(" * _ROOM + "?o = 1" + ")" * _ROOM),
            _filter(" && ".join(["?o = 1"] * _ROOM)),
            _filter("!" * (MAX_DEPTH - 2) + "(?o = 1)"),
            "SELECT ?o {" + "{" * _ROOM + "UC president ?o ?t"
            + "}" * (_ROOM + 1),
        ):
            query = parse(text)
            assert parse(unparse(query)) == query

    def test_the_cap_is_well_under_the_recursion_limit(self):
        assert MAX_DEPTH * 5 < sys.getrecursionlimit() // 2


class TestUnparse:
    def test_a_rendered_query(self):
        text = ('SELECT ?o ?t {"select" p ?o ?t . {?o a ?b ?t} UNION '
                '{?o c 1.5 ?t} . OPTIONAL {?o r ?z 01/02/2013} . '
                'FILTER(YEAR(?t) = 2013 && !(?t < 2014-01-01 || '
                'LENGTH(?t) > 5 MONTH))}')
        assert unparse(parse(text)) == (
            'SELECT ?o ?t {"select" p ?o ?t . {?o a ?b ?t} UNION '
            '{?o c 1.5 ?t} . OPTIONAL {?o r ?z 2013-01-02} . '
            'FILTER(YEAR(?t) = 2013 && !(?t < 2014-01-01 || '
            'LENGTH(?t) > 150 DAY))}')

    @settings(max_examples=300, deadline=None)
    @given(queries())
    def test_parse_reads_back_what_unparse_writes(self, query):
        assert parse(unparse(query)) == query
