"""repro.obs.federation + repro.obs.events: merge math and the event ring.

The merge functions are pure dict math over registry snapshot payloads,
so everything here runs without a cluster.  The histogram property test
is the load-bearing one: merging N member snapshots bucket-wise must
answer exactly what one histogram observing the union of the samples
would — otherwise federated p95s drift from per-process ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events as obs_events
from repro.obs import metrics
from repro.obs.federation import (
    build_groups,
    merge_counters,
    merge_gauges,
    merge_histograms,
    merge_snapshots,
    render_prometheus_cluster,
)
from repro.obs.metrics import Histogram

from tests.exposition_pins import federated_fixture


# ----------------------------------------------------------- counter/gauge


def test_merge_counters_sums_keywise():
    merged = merge_counters([
        {"a.b": 2, "c.d": 1},
        {"a.b": 3},
        {"e.f": 7},
    ])
    assert merged == {"a.b": 5, "c.d": 1, "e.f": 7}
    assert list(merged) == sorted(merged)


def test_merge_gauges_takes_worst_member():
    merged = merge_gauges([
        {"lag": 0.5, "depth": 3},
        {"lag": 2.5, "depth": 1},
    ])
    assert merged == {"depth": 3.0, "lag": 2.5}


# ------------------------------------------------- histogram property test


@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=20000.0,
                  allow_nan=False, allow_infinity=False),
        min_size=0, max_size=120,
    ),
    members=st.integers(min_value=1, max_value=5),
    seed=st.randoms(use_true_random=False),
)
def test_merged_histogram_equals_union_of_samples(samples, members, seed):
    """merge(N member snapshots) == one histogram over all the samples."""
    union = Histogram("h")
    shards = [Histogram("h") for _ in range(members)]
    for value in samples:
        union.observe(value)
        seed.choice(shards).observe(value)
    merged = merge_histograms([shard.as_dict() for shard in shards])
    expected = union.as_dict()
    assert merged["count"] == expected["count"]
    assert merged["overflow"] == expected["overflow"]
    assert abs(merged["sum_ms"] - expected["sum_ms"]) < 1e-6
    assert merged["buckets"] == expected["buckets"]
    for q in ("p50_ms", "p95_ms", "p99_ms"):
        assert abs(merged[q] - expected[q]) < 1e-9, q


def test_merge_histograms_refuses_a_foreign_ladder():
    ours = Histogram("h")
    ours.observe(3.0)
    foreign = ours.as_dict()
    foreign["buckets"] = [[1.0, 0], [10.0, 1]]
    with pytest.raises(ValueError, match="foreign bucket ladder"):
        merge_histograms([ours.as_dict(), foreign])
    with pytest.raises(ValueError, match="foreign bucket ladder"):
        merge_snapshots([{"histograms": {"h": foreign}}])


# ----------------------------------------------------------- group building


def _member(shard, role, counters=None, *, alive=True, enabled=True):
    return {
        "shard": shard, "role": role, "alive": alive, "enabled": enabled,
        "metrics": {"counters": counters or {}},
    }


def test_build_groups_merges_replicas_and_skips_dead():
    groups = build_groups([
        {"role": "coordinator", "alive": True, "enabled": True,
         "metrics": {"counters": {"q": 1}}},
        _member(0, "shard", {"cluster.worker.requests": 4}),
        _member(0, "replica", {"cluster.worker.requests": 2}),
        _member(0, "replica", {"cluster.worker.requests": 3}),
        _member(1, "shard", {"cluster.worker.requests": 9}),
        _member(1, "replica", None, alive=False),
        _member(1, "replica", None, enabled=False),
    ])
    by_label = {
        tuple(sorted(g["labels"].items())): g for g in groups
    }
    replicas_0 = by_label[(("role", "replica"), ("shard", "0"))]
    assert replicas_0["members"] == 2
    assert replicas_0["metrics"]["counters"] == {
        "cluster.worker.requests": 5
    }
    assert (("role", "replica"), ("shard", "1")) not in by_label
    coordinator = by_label[(("role", "coordinator"),)]
    assert coordinator["metrics"]["counters"] == {"q": 1}


def test_merge_snapshots_shape():
    merged = merge_snapshots([
        {"counters": {"a": 1}, "gauges": {"g": 2.0},
         "histograms": {"h": Histogram("h").as_dict()}},
        {"counters": {"a": 1}},
    ])
    assert merged["counters"] == {"a": 2}
    assert merged["gauges"] == {"g": 2.0}
    assert set(merged) == {"counters", "gauges", "histograms"}
    assert set(merged["histograms"]) == {"h"}


# ------------------------------------------------------ prometheus renderer


def test_render_prometheus_cluster_pins_label_order():
    text = render_prometheus_cluster(federated_fixture())
    # The canonical label order is shard,role — pinned, not sorted.
    assert ('repro_cluster_worker_replicated_total'
            '{shard="0",role="replica"} 6') in text
    assert ('repro_cluster_worker_requests_total'
            '{shard="0",role="shard"} 4') in text


def test_render_prometheus_cluster_lag_and_liveness_series():
    text = render_prometheus_cluster(federated_fixture())
    assert ('repro_cluster_lag_lsn'
            '{shard="0",role="replica",replica="0"} 3') in text
    assert ('repro_cluster_lag_seconds'
            '{shard="0",role="replica",replica="0"} 0.25') in text
    assert 'repro_cluster_member_up{role="coordinator"} 1' in text
    assert ('repro_cluster_member_up'
            '{shard="1",role="replica",replica="0"} 0') in text
    # A dead replica reports no lag series at all.
    assert 'lag_lsn{shard="1"' not in text


def test_render_prometheus_cluster_histogram_buckets_labeled():
    text = render_prometheus_cluster(federated_fixture())
    assert ('repro_cluster_coordinator_rpc_ms_bucket'
            '{shard="0",role="shard",le="5"} 1') in text
    assert ('repro_cluster_coordinator_rpc_ms_bucket'
            '{shard="0",role="shard",le="+Inf"} 1') in text
    assert ('repro_cluster_coordinator_rpc_ms_count'
            '{shard="0",role="shard"} 1') in text


# -------------------------------------------------------------- event ring


def test_event_log_records_and_counts():
    log = obs_events.EventLog(capacity=4)
    log.record("cluster.event.promoted", shard_id=0, pid=42)
    log.record("cluster.event.resync", level="warning", shard_id=1)
    recent = log.recent()
    assert [e["event"] for e in recent] == [
        "cluster.event.resync", "cluster.event.promoted"
    ]
    assert recent[0]["level"] == "warning"
    assert recent[1]["shard_id"] == 0
    assert all("ts" in e for e in recent)
    assert log.counts() == {
        "cluster.event.promoted": 1, "cluster.event.resync": 1
    }
    assert len(log) == 2


def test_event_log_ring_is_bounded_but_counts_are_lifetime():
    log = obs_events.EventLog(capacity=3)
    for _ in range(10):
        log.record("cluster.event.resync")
    assert len(log) == 3
    assert log.counts() == {"cluster.event.resync": 10}


def test_event_log_drops_none_fields():
    log = obs_events.EventLog()
    log.record("cluster.event.promoted", trace_id=None, shard_id=2)
    (event,) = log.recent()
    assert "trace_id" not in event
    assert event["shard_id"] == 2


def test_event_log_disabled_records_nothing():
    log = obs_events.EventLog()
    metrics.set_enabled(False)
    try:
        log.record("cluster.event.promoted")
    finally:
        metrics.set_enabled(True)
    assert log.recent() == []
    assert log.counts() == {}
