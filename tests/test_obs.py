"""Observability layer: metrics registry, kill switch, query profiles."""

import json

import pytest

from repro.engine import RDFTX
from repro.model import TemporalGraph, date_to_chronon
from repro.mvbt.tree import MVBTConfig
from repro.obs import (
    REGISTRY,
    ProfileNode,
    QueryProfile,
    Registry,
    set_enabled,
)
from repro.obs import metrics as obs_metrics
from repro.optimizer import Optimizer

D = date_to_chronon


@pytest.fixture(autouse=True)
def obs_on():
    """Force instrumentation on for these tests, restoring afterwards."""
    previous = set_enabled(True)
    yield
    set_enabled(previous)


@pytest.fixture(scope="module")
def graph():
    g = TemporalGraph()
    g.add("UC", "president", "Mark_Yudof", D("06/16/2008"), D("09/30/2013"))
    g.add("UC", "president", "Janet_Napolitano", D("09/30/2013"))
    g.add("UC", "budget", "22.7", D("01/30/2013"), D("01/30/2015"))
    g.add("UC", "budget", "25.46", D("01/30/2015"))
    g.add("UM", "president", "Mary_Sue_Coleman", D("08/01/2002"),
          D("07/01/2014"))
    g.add("UM", "budget", "6.6", D("01/01/2013"))
    return g


CONFIG = MVBTConfig(block_capacity=8, weak_min=2, epsilon=1)


@pytest.fixture(scope="module")
def engine(graph):
    return RDFTX.from_graph(graph, config=CONFIG, optimizer=Optimizer())


class TestCounters:
    def test_inc_and_value(self):
        reg = Registry()
        c = reg.counter("engine.queries")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_same_name_same_object(self):
        reg = Registry()
        assert reg.counter("engine.queries") is reg.counter("engine.queries")

    def test_reset_keeps_object(self):
        reg = Registry()
        c = reg.counter("engine.queries")
        c.inc(3)
        reg.reset()
        assert c.value == 0
        c.inc()
        assert reg.counter("engine.queries").value == 1

    def test_disabled_is_noop(self):
        reg = Registry()
        c = reg.counter("engine.queries")
        set_enabled(False)
        c.inc(100)
        set_enabled(True)
        assert c.value == 0

    def test_counter_values(self):
        reg = Registry()
        reg.counter("engine.queries").inc(2)
        assert reg.counter_values(["engine.queries", "engine.hash_joins"]) == {
            "engine.queries": 2, "engine.hash_joins": 0,
        }

    def test_gauge(self):
        reg = Registry()
        g = reg.gauge("obs.workload.shapes")
        g.set(7.5)
        assert g.value == 7.5
        set_enabled(False)
        g.set(1.0)
        set_enabled(True)
        assert g.value == 7.5


class TestRegistry:
    def test_snapshot_shape(self):
        reg = Registry()
        reg.counter("engine.queries").inc()
        reg.gauge("obs.workload.shapes").set(2.0)
        reg.histogram("engine.query_ms").observe(1.0)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"] == {"engine.queries": 1}
        assert snap["gauges"] == {"obs.workload.shapes": 2.0}
        assert snap["histograms"]["engine.query_ms"]["count"] == 1

    def test_render_text_and_json(self):
        reg = Registry()
        reg.counter("engine.queries").inc(3)
        text = reg.render_text()
        assert "engine.queries" in text and "3" in text
        parsed = json.loads(reg.render_json())
        assert parsed["counters"]["engine.queries"] == 3

    def test_render_empty(self):
        assert Registry().render_text() == "(no metrics recorded)"

    def test_set_enabled_returns_previous(self):
        assert set_enabled(False) is True
        assert set_enabled(True) is False
        assert obs_metrics.enabled()


class TestQErrors:
    def test_exact_estimate(self):
        node = ProfileNode(op="scan", est_rows=10, actual_rows=10)
        assert node.qerror == pytest.approx(1.0)

    def test_over_and_under_estimates_symmetric(self):
        over = ProfileNode(op="scan", est_rows=50, actual_rows=10)
        under = ProfileNode(op="scan", est_rows=10, actual_rows=50)
        assert over.qerror == pytest.approx(5.0)
        assert under.qerror == pytest.approx(5.0)

    def test_floored_at_one_row(self):
        node = ProfileNode(op="scan", est_rows=0.01, actual_rows=0)
        assert node.qerror == pytest.approx(1.0)

    def test_missing_sides(self):
        assert ProfileNode(op="scan", est_rows=None, actual_rows=5).qerror \
            is None
        assert ProfileNode(op="scan", est_rows=5, actual_rows=None).qerror \
            is None

    def test_profile_max_qerror(self):
        root = ProfileNode(op="project", children=[
            ProfileNode(op="scan", detail="p1", est_rows=2, actual_rows=4),
            ProfileNode(op="scan", detail="p2", est_rows=9, actual_rows=3),
        ])
        prof = QueryProfile(root=root)
        assert [p for p, *_ in prof.pattern_qerrors()] == ["p1", "p2"]
        assert prof.max_qerror() == pytest.approx(3.0)


class TestQueryProfiles:
    def test_no_profile_by_default(self, engine):
        result = engine.query("SELECT ?p {UC president ?p ?t}")
        assert result.profile is None

    def test_selection_profile_shape(self, engine):
        result = engine.query("SELECT ?p {UC president ?p ?t}",
                              profile=True)
        prof = result.profile
        assert prof is not None
        assert prof.root.op == "project"
        assert prof.root.actual_rows == len(result)
        ops = [n.op for n in prof.iter_nodes()]
        assert "scan" in ops
        scan = next(n for n in prof.iter_nodes() if n.op == "scan")
        assert "president" in scan.detail
        assert scan.actual_rows == 2
        assert scan.est_rows is not None  # optimizer attached
        assert prof.total_ms > 0.0

    def test_join_profile_shape(self, engine):
        result = engine.query(
            "SELECT ?p ?b {UC president ?p ?t . UC budget ?b ?t}",
            profile=True,
        )
        prof = result.profile
        assert prof is not None
        ops = [n.op for n in prof.iter_nodes()]
        assert ops[0] == "project"
        # Two patterns produce either a synchronized or a hash join.
        assert ("sync join" in ops) or ("hash join" in ops)
        scans = [n for n in prof.iter_nodes() if n.op == "scan"]
        assert len(scans) == 2
        join = next(n for n in prof.iter_nodes()
                    if n.op in ("sync join", "hash join"))
        assert join.actual_rows == len(result)
        assert join.est_rows is not None

    def test_profile_render_and_dict(self, engine):
        result = engine.query(
            "SELECT ?p ?b {UC president ?p ?t . UC budget ?b ?t}",
            profile=True,
        )
        text = result.profile.render()
        assert "Total:" in text
        assert "est=" in text and "actual=" in text
        d = result.profile.to_dict()
        assert set(d) == {"total_ms", "max_qerror", "plan"}
        json.dumps(d)  # must be serializable

    def test_scan_counters_attached(self, engine):
        result = engine.query("SELECT ?p {UC president ?p ?t}",
                              profile=True)
        scan = next(n for n in result.profile.iter_nodes()
                    if n.op == "scan")
        assert scan.extra.get("entries", 0) >= scan.actual_rows

    def test_kill_switch_suppresses_profile(self, engine):
        set_enabled(False)
        try:
            result = engine.query("SELECT ?p {UC president ?p ?t}",
                                  profile=True)
        finally:
            set_enabled(True)
        assert result.profile is None

    def test_engine_counters_advance(self, engine):
        before = REGISTRY.counter("engine.queries").value
        timed = REGISTRY.histogram("engine.query_ms").count
        engine.query("SELECT ?p {UC president ?p ?t}")
        assert REGISTRY.counter("engine.queries").value == before + 1
        assert REGISTRY.histogram("engine.query_ms").count == timed + 1

    def test_snapshot_save_and_load_are_timed(self, engine, tmp_path):
        from repro.service.snapshot import load_snapshot, save_snapshot

        saves = REGISTRY.histogram("service.snapshot.save_ms")
        loads = REGISTRY.histogram("service.snapshot.load_ms")
        before = (saves.count, loads.count)
        load_snapshot(save_snapshot(engine, tmp_path / "e.snap"))
        assert (saves.count, loads.count) == (before[0] + 1, before[1] + 1)

    def test_group_query_profiles(self, engine):
        result = engine.query(
            "SELECT ?p {{UC president ?p ?t} UNION {UM president ?p ?t}}",
            profile=True,
        )
        assert result.profile is not None
        assert result.profile.root.op == "project"


class TestResultTable:
    def test_to_table_empty_projection(self, engine):
        from repro.engine.engine import QueryResult

        result = QueryResult(variables=[], rows=[{}, {}])
        assert result.to_table() == "(2 row(s), no variables)"

    def test_to_table_no_rows(self, engine):
        from repro.engine.engine import QueryResult

        table = QueryResult(variables=["x"], rows=[]).to_table()
        assert "x" in table


class TestHarnessHelpers:
    def test_archive_profiles(self, engine, tmp_path):
        from repro.bench.harness import archive_profiles

        out = tmp_path / "nested" / "profiles.json"
        n = archive_profiles(
            engine, ["SELECT ?p {UC president ?p ?t}"], out
        )
        assert n == 1
        payload = json.loads(out.read_text())
        assert payload[0]["plan"]["op"] == "project"

    def test_archive_profiles_baseline(self, tmp_path):
        from repro.bench.harness import archive_profiles

        class NoProfile:
            def query(self, text):
                return None

        out = tmp_path / "profiles.json"
        assert archive_profiles(NoProfile(), ["q"], out) == 0
        assert json.loads(out.read_text()) == []
