"""Prometheus exposition pins: what ``/metrics`` and ``/metrics?scope=cluster``
print for three fixed inputs.

``python tests/exposition_pins.py`` prints the pins as JSON;
``tests/golden/exposition_pins.json`` holds that output from the commit
before histograms replaced the timers, and ``tests/test_exposition.py``
compares the current output with it family by family.  The inputs:

* ``zero_filled`` — a fresh registry's scrape: every cataloged metric,
  zero-valued;
* ``recorded`` — the same after counters, gauges and one histogram (with
  an overflow observation) were recorded;
* ``cluster`` — the cluster renderer over a fixed federated pull (the
  coordinator and one shard, with liveness).

Every input records with instrumentation forced on, so the pins hold
under ``REPRO_OBS=0`` as well.
"""

import json

from repro.obs import metrics
from repro.obs.federation import render_prometheus_cluster
from repro.obs.metrics import Histogram, Registry

#: Families the timers rendered; histograms replaced them.
TIMER_FAMILIES = frozenset({
    "repro_engine_query_seconds",
    "repro_service_server_request_seconds",
    "repro_service_snapshot_load_seconds",
    "repro_service_snapshot_save_seconds",
})

#: The histograms that replaced them (``service.server.request`` had one).
HISTOGRAM_FAMILIES = frozenset({
    "repro_engine_query_ms",
    "repro_service_snapshot_load_ms",
    "repro_service_snapshot_save_ms",
})


def recorded_registry() -> Registry:
    """A registry with counters, gauges and a histogram recorded."""
    previous = metrics.set_enabled(True)
    try:
        registry = Registry()
        registry.counter("service.server.requests").inc(3)
        registry.counter("engine.queries").inc(7)
        registry.gauge("process.rss_bytes").set(2048)
        registry.gauge("obs.workload.shapes").set(2.5)
        hist = registry.histogram("service.server.request_ms")
        for value in (0.03, 0.5, 5.0, 42.0, 12345.0):  # the last overflows
            hist.observe(value)
    finally:
        metrics.set_enabled(previous)
    return registry


def federated_fixture() -> dict:
    """A federated pull as ``ClusterStore.federated_metrics`` returns it."""
    previous = metrics.set_enabled(True)
    try:
        hist = Histogram("cluster.coordinator.rpc_ms")
        hist.observe(3.0)
    finally:
        metrics.set_enabled(previous)
    return {
        "scope": "cluster",
        "watermark": 7,
        "members": [
            {"role": "coordinator", "alive": True, "enabled": True,
             "metrics": {}},
            {"shard": 0, "role": "shard", "pid": 11, "alive": True,
             "enabled": True, "metrics": {}},
        ],
        "groups": [
            {"labels": {"shard": "0", "role": "shard"},
             "metrics": {
                 "counters": {"cluster.worker.requests": 4},
                 "gauges": {},
                 "histograms": {"cluster.coordinator.rpc_ms":
                                hist.as_dict()},
             }},
        ],
    }


def outputs() -> dict[str, str]:
    """The three renderings, by input name."""
    return {
        "zero_filled": Registry().render_prometheus(),
        "recorded": recorded_registry().render_prometheus(),
        "cluster": render_prometheus_cluster(federated_fixture()),
    }


def without_families(text: str, families: frozenset[str]) -> list[str]:
    """The exposition's lines, less every line of the named families (a
    family is its ``# HELP``/``# TYPE`` header and the samples after it)."""
    kept = []
    family = None
    for line in text.splitlines():
        if line.startswith(("# HELP ", "# TYPE ")):
            family = line.split()[2]
        if family not in families:
            kept.append(line)
    return kept


if __name__ == "__main__":
    print(json.dumps(outputs(), indent=1, sort_keys=True))
