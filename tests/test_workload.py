"""Query fingerprinting and the workload registry.

The fingerprint properties are the contract the /debug/workload endpoint
rests on: invariance under whitespace, constants, and variable renaming
(those queries must aggregate together) and sensitivity to structure
(queries with different variable topology must not collide).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.obs.workload import (
    WorkloadRegistry,
    fingerprint,
    fingerprint_text,
)
from repro.sparqlt.parser import parse

IDENT = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)


# ------------------------------------------------------------ fingerprints


class TestFingerprint:
    def test_constants_and_variable_names_collapse(self):
        a = fingerprint_text("SELECT ?o {UC president ?o ?t}")
        b = fingerprint_text("SELECT ?x {UM chancellor ?x ?u}")
        assert a == b

    def test_whitespace_is_irrelevant(self):
        a = fingerprint_text("SELECT ?o {UC president ?o ?t}")
        b = fingerprint_text("SELECT  ?o  {\n  UC president ?o ?t\n}")
        assert a == b

    def test_repeated_variable_is_a_different_shape(self):
        distinct = fingerprint_text("SELECT ?a {?a president ?b ?t}")
        repeated = fingerprint_text("SELECT ?a {?a president ?a ?t}")
        assert distinct != repeated

    def test_filter_structure_is_preserved(self):
        plain = fingerprint_text("SELECT ?o {UC budget ?o ?t}")
        filtered = fingerprint_text(
            "SELECT ?o {UC budget ?o ?t . FILTER(YEAR(?t) = 2013)}"
        )
        assert plain != filtered
        # ... but the filter's literal is a placeholder:
        other_year = fingerprint_text(
            "SELECT ?o {UC budget ?o ?t . FILTER(YEAR(?t) = 1999)}"
        )
        assert filtered == other_year

    def test_parsed_and_text_paths_agree(self):
        text = "SELECT ?o {UC president ?o ?t}"
        assert fingerprint(parse(text)) == fingerprint_text(text)

    @settings(max_examples=50, deadline=None)
    @given(subject=IDENT, predicate=IDENT, pad=st.integers(1, 5))
    def test_constant_and_whitespace_invariance_property(
        self, subject, predicate, pad
    ):
        base = fingerprint_text("SELECT ?o {UC president ?o ?t}")
        spaced = " " * pad
        varied = fingerprint_text(
            f"SELECT{spaced}?o{spaced}{{{subject} {predicate}"
            f"{spaced}?o ?t}}"
        )
        assert varied == base

    @settings(max_examples=50, deadline=None)
    @given(var_a=IDENT, var_b=IDENT)
    def test_variable_topology_determines_the_shape(self, var_a, var_b):
        """Consistent renaming never changes the shape; collapsing two
        distinct variables into one always does.

        Suffixes keep the three generated names pairwise distinct no
        matter what hypothesis draws — e.g. ``var_a = "t"`` bare would
        collide with the time variable and genuinely change the shape.
        """
        distinct = fingerprint_text(
            f"SELECT ?{var_a}_1 "
            f"{{?{var_a}_1 president ?{var_b}_2 ?{var_a}_t}}"
        )
        repeated = fingerprint_text(
            f"SELECT ?{var_a}_1 "
            f"{{?{var_a}_1 president ?{var_a}_1 ?{var_a}_t}}"
        )
        canonical_distinct = fingerprint_text(
            "SELECT ?a {?a president ?b ?t}"
        )
        canonical_repeated = fingerprint_text(
            "SELECT ?a {?a president ?a ?t}"
        )
        assert distinct == canonical_distinct
        assert repeated == canonical_repeated
        assert distinct != repeated


# ---------------------------------------------------------------- registry


class TestWorkloadRegistry:
    def test_record_and_snapshot(self):
        reg = WorkloadRegistry()
        text = "SELECT ?o {UC president ?o ?t}"
        reg.record_query(None, text, 5.0, rows=2, cache_hit=False,
                         trace_id="ab-00000001")
        reg.record_query(None, text, 15.0, rows=2, cache_hit=True,
                         trace_id="ab-00000002")
        snap = reg.snapshot()
        assert snap["distinct_shapes"] == 1
        (shape,) = snap["shapes"]
        assert shape["count"] == 2
        assert shape["cache_hit_ratio"] == 0.5
        assert shape["rows_mean"] == 2.0
        assert shape["exemplar_trace_id"] == "ab-00000002"  # the slowest
        assert shape["slowest_ms"] == 15.0
        assert shape["example"] == text

    def test_render_text_empty_and_populated(self):
        reg = WorkloadRegistry()
        assert "no queries recorded" in reg.render_text()
        reg.record_query(None, "SELECT ?o {UC president ?o ?t}",
                         1.0, rows=1, cache_hit=False)
        table = reg.render_text()
        assert "SELECT ?v0 { <c> <c> ?v0 ?v1 }" in table
        assert "count" in table

    def test_disabled_records_nothing(self):
        reg = WorkloadRegistry()
        metrics.set_enabled(False)
        try:
            reg.record_query(None, "SELECT ?o {UC president ?o ?t}",
                             1.0, rows=1, cache_hit=False)
        finally:
            metrics.set_enabled(True)
        assert len(reg) == 0

    def test_registry_stays_bounded_under_10k_shapes(self):
        reg = WorkloadRegistry(max_shapes=512)
        for i in range(10_000):
            stats = reg._record(f"shape{i:05x}", f"SELECT ?v0 {{ s{i} }}")
            stats.record(1.0, rows=0, cache_hit=False, trace_id=None)
        assert len(reg) == 512
        snap = reg.snapshot()
        assert snap["distinct_shapes"] == 512
        assert snap["overflow"] == 10_000 - 512

    @settings(max_examples=20, deadline=None)
    @given(st.lists(IDENT, min_size=1, max_size=30))
    def test_distinct_predicates_one_shape(self, predicates):
        """Any mix of constants folds into the same shape bucket."""
        reg = WorkloadRegistry()
        for predicate in predicates:
            reg.record_query(
                None, f"SELECT ?o {{UC {predicate} ?o ?t}}",
                1.0, rows=0, cache_hit=False,
            )
        assert len(reg) == 1
        assert reg.snapshot()["shapes"][0]["count"] == len(predicates)

