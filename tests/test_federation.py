"""repro.obs.federation + repro.obs.events: groups, rendering, the ring.

Each ``(shard, role)`` label set is held by one process, so a group is
one member's own snapshot; everything here is dict work over registry
snapshot payloads and runs without a cluster.
"""

from repro.obs import events as obs_events
from repro.obs import metrics
from repro.obs.federation import build_groups, render_prometheus_cluster

from tests.exposition_pins import federated_fixture


# ----------------------------------------------------------- group building


def _member(shard, role, counters=None, *, alive=True, enabled=True):
    return {
        "shard": shard, "role": role, "alive": alive, "enabled": enabled,
        "metrics": {"counters": counters or {}},
    }


def test_build_groups_one_group_per_live_member_and_skips_dead():
    coordinator = {"role": "coordinator", "alive": True, "enabled": True,
                   "metrics": {"counters": {"q": 1}}}
    shard_0 = _member(0, "shard", {"cluster.worker.requests": 4})
    groups = build_groups([
        coordinator,
        shard_0,
        _member(1, "shard", None, alive=False),
        _member(2, "shard", None, enabled=False),
        {"shard": 3, "role": "shard", "alive": True, "enabled": True,
         "metrics": None},
    ])
    assert groups == [
        {"labels": {"role": "coordinator"},
         "metrics": {"counters": {"q": 1}}},
        {"labels": {"shard": "0", "role": "shard"},
         "metrics": {"counters": {"cluster.worker.requests": 4}}},
    ]
    assert groups[1]["metrics"] is shard_0["metrics"]


# ------------------------------------------------------ prometheus renderer


def test_render_prometheus_cluster_pins_label_order():
    text = render_prometheus_cluster(federated_fixture())
    # The canonical label order is shard,role — pinned, not sorted.
    assert ('repro_cluster_worker_requests_total'
            '{shard="0",role="shard"} 4') in text


def test_render_prometheus_cluster_liveness_series():
    federated = federated_fixture()
    federated["members"].append(_member(1, "shard", alive=False,
                                        enabled=False))
    text = render_prometheus_cluster(federated)
    assert 'repro_cluster_member_up{role="coordinator"} 1' in text
    assert 'repro_cluster_member_up{shard="0",role="shard"} 1' in text
    # A dead member has its liveness line and no other series.
    assert 'repro_cluster_member_up{shard="1",role="shard"} 0' in text
    assert text.count('shard="1"') == 1


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
    log.record("cluster.event.worker_ready", shard_id=0, pid=42)
    log.record("cluster.event.member_dead", level="warning", shard_id=1)
    recent = log.recent()
    assert [e["event"] for e in recent] == [
        "cluster.event.member_dead", "cluster.event.worker_ready"
    ]
    assert recent[0]["level"] == "warning"
    assert recent[1]["shard_id"] == 0
    assert all("ts" in e for e in recent)
    assert log.counts() == {
        "cluster.event.worker_ready": 1, "cluster.event.member_dead": 1
    }
    assert len(log) == 2


def test_event_log_ring_is_bounded_but_counts_are_lifetime():
    log = obs_events.EventLog(capacity=3)
    for _ in range(10):
        log.record("cluster.event.member_dead")
    assert len(log) == 3
    assert log.counts() == {"cluster.event.member_dead": 10}


def test_event_log_drops_none_fields():
    log = obs_events.EventLog()
    log.record("cluster.event.worker_ready", trace_id=None, shard_id=2)
    (event,) = log.recent()
    assert "trace_id" not in event
    assert event["shard_id"] == 2


def test_event_log_disabled_records_nothing():
    log = obs_events.EventLog()
    metrics.set_enabled(False)
    try:
        log.record("cluster.event.worker_ready")
    finally:
        metrics.set_enabled(True)
    assert log.recent() == []
    assert log.counts() == {}
