"""Tests for triples, dictionary encoding, and temporal graphs."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import wikipedia
from repro.engine import RDFTX
from repro.io import dumps, loads
from repro.model import (
    Dictionary,
    DictionaryError,
    NOW,
    Period,
    TemporalGraph,
    TemporalTriple,
    TimeError,
    Triple,
    date_to_chronon,
)
from repro.model import dictionary as dictionary_module
from repro.model.dictionary import INLINE_BASE, INLINE_LIMIT
from repro.model.graph import raw_size
from repro.mvbt.compression import CompressedLeafStore
from repro.mvbt.entry import LeafEntry


class TestTriple:
    def test_iteration(self):
        t = Triple("UC", "president", "Mark_Yudof")
        assert list(t) == ["UC", "president", "Mark_Yudof"]

    def test_str(self):
        t = Triple("UC", "president", "Mark_Yudof")
        assert str(t) == "(UC, president, Mark_Yudof)"


class TestTemporalTriple:
    def test_make_live(self):
        t = TemporalTriple.make("UC", "president", "Napolitano", 100)
        assert t.is_live
        assert t.period == Period(100, NOW)

    def test_static_part(self):
        t = TemporalTriple.make("UC", "president", "Napolitano", 100, 200)
        assert t.triple == Triple("UC", "president", "Napolitano")

    def test_str_matches_paper_rendering(self):
        start = date_to_chronon("09/30/2013")
        t = TemporalTriple.make(
            "University_of_California", "president", "Janet_Napolitano", start
        )
        assert str(t).endswith("[09/30/2013 ... now]")


class TestDictionary:
    def test_ids_are_dense_from_one(self):
        d = Dictionary()
        assert d.encode("a") == 1
        assert d.encode("b") == 2
        assert d.encode("a") == 1

    def test_decode(self):
        d = Dictionary()
        ident = d.encode("University_of_California")
        assert d.decode(ident) == "University_of_California"

    def test_decode_unknown_raises(self):
        d = Dictionary()
        with pytest.raises(DictionaryError):
            d.decode(42)
        with pytest.raises(DictionaryError):
            d.decode(0)

    def test_lookup_without_assign(self):
        d = Dictionary()
        assert d.lookup("missing") is None
        d.encode("present")
        assert d.lookup("present") == 1

    def test_bounds(self):
        d = Dictionary()
        d.encode_many(["a", "b", "c"])
        assert d.max_id == 3
        assert len(d) == 3
        assert "b" in d

    def test_sizeof_grows(self):
        d = Dictionary()
        empty = d.sizeof()
        d.encode_many(f"term-{i}" for i in range(100))
        assert d.sizeof() > empty


#: Every canonical integer of magnitude below ``INLINE_LIMIT`` is its own
#: id; every other spelling of a number is a table term.
_INLINE_EDGES = ["0", "-1", str(INLINE_LIMIT - 1), str(-(INLINE_LIMIT - 1))]
_TABLE_EDGES = [str(INLINE_LIMIT), str(-INLINE_LIMIT), "-0", "007", "+5",
                " 5", "5 ", "1_000", "１２", "١٢", "5\n", "-", "", "1.0",
                "0x1", "9" * 5000]


class TestInlineIntegers:
    @pytest.mark.parametrize("term", _INLINE_EDGES)
    def test_a_canonical_integer_is_its_own_id(self, term):
        d = Dictionary()
        assert d.encode(term) == INLINE_BASE + int(term)
        assert d.lookup(term) == d.encode(term)
        assert d.decode(d.encode(term)) == term
        assert term in d
        assert (len(d), list(d), d.sizeof(), d.max_id) == (0, [], 0, 0)

    @pytest.mark.parametrize("term", _TABLE_EDGES)
    def test_any_other_spelling_takes_a_table_id(self, term):
        d = Dictionary()
        assert d.lookup(term) is None and term not in d
        assert d.encode(term) == 1
        assert d.decode(1) == term
        assert list(d) == [term]

    def test_every_id_stays_below_two_to_the_thirty(self):
        low, high = INLINE_BASE - INLINE_LIMIT, INLINE_BASE + INLINE_LIMIT
        assert 0 < low and high <= 1 << 30
        d = Dictionary()
        assert low < d.encode(str(-(INLINE_LIMIT - 1)))
        assert d.encode(str(INLINE_LIMIT - 1)) < high

    def test_the_table_stops_short_of_the_inline_ids(self, monkeypatch):
        monkeypatch.setattr(dictionary_module, "_TABLE_LIMIT", 3)
        d = Dictionary()
        assert d.encode_many(["a", "b", "5"]) == [1, 2, INLINE_BASE + 5]
        with pytest.raises(DictionaryError):
            d.encode("c")
        assert d.lookup("c") is None and len(d) == 2

    def test_a_table_id_wins_over_the_inline_rule(self):
        """A restored table keeps its ids for numbers, so each term has
        exactly one id in each dictionary."""
        d = Dictionary.from_table(["a", "7", "-3"])
        assert d.encode("7") == d.lookup("7") == 2
        assert d.encode("-3") == 3 and d.encode("8") == INLINE_BASE + 8
        assert d.decode(2) == "7" and d.encode("b") == 4
        assert list(d) == ["a", "7", "-3", "b"]

    def test_decode_refuses_an_id_outside_both_ranges(self):
        d = Dictionary()
        for term_id in (0, 1, INLINE_BASE - INLINE_LIMIT,
                        INLINE_BASE + INLINE_LIMIT, -1):
            with pytest.raises(DictionaryError):
                d.decode(term_id)

    def test_a_leaf_mixing_the_extreme_ids_packs_and_scans_back(self):
        """Table id 1 beside the largest inline id: the widest delta a
        key can take fits the codec's four-byte field."""
        top = INLINE_BASE + INLINE_LIMIT - 1
        rows = [((1, 1, 1), 3, NOW), ((1, 1, top), 4, 9),
                ((1, top, 1), 5, NOW), ((top, 1, top), 6, NOW),
                ((top, top, top), 7, 8)]
        store = CompressedLeafStore([LeafEntry(*row, None) for row in rows])
        assert [(e.key, e.start, e.end) for e in store.entries()] == rows
        scanned = store.scan_packed((1, 1, top), (top, 1, top + 1),
                                    0, NOW, 0, NOW)
        assert [piece[:3] for piece in scanned] == rows[1:4]


_ANY_TEXT = st.text(max_size=12) | st.integers(
    -(INLINE_LIMIT + 5), INLINE_LIMIT + 5).map(str) | st.sampled_from(
    _INLINE_EDGES + _TABLE_EDGES)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ANY_TEXT, max_size=40), st.lists(_ANY_TEXT, max_size=10))
def test_encode_is_a_bijection_and_lookup_agrees(terms, probes):
    """``decode(encode(t)) == t``; distinct terms get distinct ids;
    ``lookup`` returns what ``encode`` would without assigning."""
    d = Dictionary()
    for probe in probes:
        before = (len(d), list(d))
        found = d.lookup(probe)
        assert (len(d), list(d)) == before
        if found is not None:
            assert d.encode(probe) == found
    ids = {}
    for term in terms:
        looked = d.lookup(term)
        term_id = d.encode(term)
        assert looked in (None, term_id)
        assert d.lookup(term) == term_id
        assert d.decode(term_id) == term
        assert ids.setdefault(term, term_id) == term_id
    assert len(set(ids.values())) == len(ids)
    for term, term_id in ids.items():
        inline = INLINE_BASE - INLINE_LIMIT <= term_id
        assert inline == (term not in list(d))
        assert 0 < term_id < 1 << 30


class TestTemporalGraph:
    @pytest.fixture
    def uc_graph(self):
        """The University of California history of Table 2."""
        g = TemporalGraph()
        day = date_to_chronon
        g.add("UC", "president", "Mark_Yudof",
              day("06/16/2008"), day("09/30/2013"))
        g.add("UC", "president", "Janet_Napolitano", day("09/30/2013"))
        g.add("UC", "endowment", "10.3", day("07/01/2013"), day("07/01/2014"))
        g.add("UC", "endowment", "13.1", day("07/01/2014"))
        g.add("UC", "undergraduate", "184562",
              day("05/14/2013"), day("01/30/2015"))
        g.add("UC", "undergraduate", "188300", day("01/30/2015"))
        return g

    def test_len(self, uc_graph):
        assert len(uc_graph) == 6

    def test_decode_roundtrip(self, uc_graph):
        decoded = list(uc_graph.triples())
        assert any(t.object == "Janet_Napolitano" for t in decoded)

    def test_history_of_subject(self, uc_graph):
        history = RDFTX.from_graph(uc_graph).history("UC", "president")
        assert [obj for _, obj, _ in history] == [
            "Mark_Yudof",
            "Janet_Napolitano",
        ]

    def test_history_of_unknown(self, uc_graph):
        engine = RDFTX.from_graph(uc_graph)
        assert engine.history("MIT") == []
        assert engine.history("UC", "nosuch") == []

    def test_validity_when_query(self, uc_graph):
        """Example 1: when did Napolitano serve as president."""
        engine = RDFTX.from_graph(uc_graph)
        ps = engine.when("UC", "president", "Janet_Napolitano")
        assert len(ps) == 1
        assert ps.first() == date_to_chronon("09/30/2013")
        assert ps.periods[0].is_live

    def test_validity_unknown_term(self, uc_graph):
        engine = RDFTX.from_graph(uc_graph)
        assert engine.when("UC", "president", "Nobody").is_empty

    def test_predicate_counts(self, uc_graph):
        counts = uc_graph.predicate_counts()
        pid = uc_graph.dictionary.lookup("president")
        assert counts[pid] == 2

    def test_distinct_subjects(self, uc_graph):
        assert uc_graph.distinct_subjects() == 1

    def test_raw_size_positive(self, uc_graph):
        assert uc_graph.raw_size() > 6 * 16


class TestRowStorage:
    """A graph holds one flat ``(sid, pid, oid, start, end)`` row per fact."""

    def test_encoded_rows_is_the_stored_list(self):
        g = TemporalGraph()
        g.add("a", "p", "x", 1, 5)
        rows = g.encoded_rows()
        assert rows is g.encoded_rows()
        g.add("b", "p", "y", 2)
        assert rows == [(1, 2, 3, 1, 5), (4, 2, 5, 2, NOW)]

    @pytest.mark.parametrize("start, end", [(5, 5), (9, 3), (-1, 4),
                                            (0, NOW + 1)])
    def test_a_rejected_fact_interns_no_term(self, start, end):
        g = TemporalGraph()
        g.add("a", "p", "x", 1, 5)
        size, terms = g.dictionary.sizeof(), len(g.dictionary)
        with pytest.raises(TimeError):
            g.add("fresh-s", "fresh-p", "fresh-o", start, end)
        assert (g.dictionary.sizeof(), len(g.dictionary)) == (size, terms)
        assert "fresh-s" not in g.dictionary
        assert len(g) == 1

    def test_raw_size_matches_the_per_row_formula(self):
        g = TemporalGraph()
        terms = ["Zürich", "名前", "plain", "naïve café", "𝄞clef", "plain"]
        for i in range(40):
            g.add(terms[i % 6], terms[(i * 5 + 1) % 6], terms[(i * 7 + 2) % 6],
                  i, NOW if i % 3 else i + 10)
        decode = g.dictionary.decode
        expected = sum(
            len(decode(s).encode()) + len(decode(p).encode())
            + len(decode(o).encode()) + 16
            for s, p, o, _, _ in g.encoded_rows()
        )
        assert g.raw_size() == expected
        assert raw_size(g.dictionary, g.encoded_rows()[:7]) == sum(
            len(decode(s).encode()) + len(decode(p).encode())
            + len(decode(o).encode()) + 16
            for s, p, o, _, _ in g.encoded_rows()[:7]
        )
        assert raw_size(g.dictionary, []) == 0

    def test_footprint_per_fact_including_the_dictionary(self):
        """A fresh 4 000-fact wikipedia graph costs at most 136 B per fact
        for its rows and its dictionary together.  Table ids for the
        infobox integers read about 146 B (their dict and list slots);
        inline ids read about 124 B, each row owning its number's int.
        An object per fact costs about 200 B more."""
        source = wikipedia.generate(4000, seed=17).graph
        decode = source.dictionary.decode
        facts = [(decode(s), decode(p), decode(o), start, end)
                 for s, p, o, start, end in source.encoded_rows()]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = TemporalGraph()
            for fact in facts:
                graph.add(*fact)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(graph) == len(facts) >= 4000
        assert grown / len(facts) <= 136

    def test_coalesced_matches_the_pinned_result(self):
        """Overlapping, adjacent and out-of-order valid-time assertions:
        rows, dictionary order and text as the object-per-fact graph
        produced them."""
        g = TemporalGraph()
        for fact in [("b", "q", "y", 40, 90), ("a", "p", "x", 10, 30),
                     ("b", "q", "y", 5, 45), ("a", "p", "x", 20, 50),
                     ("c", "p", "x", 7, NOW), ("a", "p", "x", 50, 60),
                     ("a", "q", "y", 3, 4), ("a", "p", "x", 100, 110),
                     ("c", "p", "x", 1, 8), ("b", "q", "y", 200, NOW)]:
            g.add(*fact)
        merged = g.coalesced()
        assert merged.encoded_rows() == [
            (1, 2, 3, 5, 90), (1, 2, 3, 200, NOW), (4, 5, 6, 10, 60),
            (4, 5, 6, 100, 110), (7, 5, 6, 1, NOW), (4, 2, 3, 3, 4),
        ]
        assert list(merged.dictionary) == ["b", "q", "y", "a", "p", "x", "c"]
        assert dumps(merged) == (
            "b q y 1970-01-06 1970-04-01 .\n"
            "b q y 1970-07-20 now .\n"
            "a p x 1970-01-11 1970-03-02 .\n"
            "a p x 1970-04-11 1970-04-21 .\n"
            "c p x 1970-01-02 now .\n"
            "a q y 1970-01-04 1970-01-05 .\n"
        )
        assert len(g) == 10  # the source is left as it was


_TERMS = st.text(
    alphabet=st.sampled_from(list('ab zé名𝄞"\\#.')), min_size=1, max_size=6
) | st.sampled_from(["now", ".", "s", "p"])
_FACTS = st.lists(
    st.tuples(
        _TERMS, _TERMS, _TERMS,
        st.integers(0, 60_000), st.integers(1, 3_000) | st.just(None),
    ).map(lambda f: (f[0], f[1], f[2], f[3],
                     NOW if f[4] is None else f[3] + f[4])),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_FACTS)
def test_rows_iteration_triples_and_text_agree(facts):
    """``encoded_rows()``, iteration, ``triples()`` and a ``dumps`` →
    ``loads`` round trip all describe the facts as they were added."""
    g = TemporalGraph()
    for fact in facts:
        g.add(*fact)
    decode = g.dictionary.decode
    rows = g.encoded_rows()
    assert [(decode(s), decode(p), decode(o), start, end)
            for s, p, o, start, end in rows] == facts
    assert [(t.subject, t.predicate, t.object, t.period.start, t.period.end)
            for t in g] == rows
    assert [t.key("spo") for t in g] == [row[:3] for row in rows]
    assert [(t.subject, t.predicate, t.object, t.period.start, t.period.end)
            for t in g.triples()] == facts
    back = loads(dumps(g))
    assert back.encoded_rows() == rows
    assert list(back.dictionary) == list(g.dictionary)
