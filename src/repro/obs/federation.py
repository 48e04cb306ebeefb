"""Cluster metrics federation: merge member snapshots, render labels.

The coordinator pulls each member's registry snapshot (the worker
``metrics`` op) and needs two things done with the pile: *merge* the
per-process values into one series per ``(shard, role)`` label set, and
*render* the result in the Prometheus text format with those labels
attached.  Everything here is pure dict math over the wire shape of
:meth:`repro.obs.metrics.Registry.snapshot` — no sockets, no registry
mutation — so it is unit-testable without a cluster.

Merge semantics per kind:

* **counters** — summed; the per-process counts are disjoint.
* **gauges** — max; a gauge is a point-in-time reading and the
  conservative fleet-wide answer for lag/watermark-style values is the
  worst member.
* **histograms** — summed bucket by bucket into one
  :class:`~repro.obs.metrics.Histogram`, which reports its own
  p50/p95/p99 — exactly what a single histogram observing the union of
  samples would report.  Every histogram shares one ladder; a member
  snapshot on any other raises ``ValueError``.
"""

from __future__ import annotations

from typing import Any, Iterable

from .metrics import Histogram, prometheus_lines

__all__ = [
    "merge_counters",
    "merge_gauges",
    "merge_histograms",
    "merge_snapshots",
    "build_groups",
    "render_prometheus_cluster",
]


def merge_counters(maps: Iterable[dict[str, Any]]) -> dict[str, int]:
    """Sum counter maps key-wise."""
    merged: dict[str, int] = {}
    for values in maps:
        for name, value in values.items():
            merged[name] = merged.get(name, 0) + int(value)
    return dict(sorted(merged.items()))


def merge_gauges(maps: Iterable[dict[str, Any]]) -> dict[str, float]:
    """Fold gauge maps key-wise by max (worst-member semantics)."""
    merged: dict[str, float] = {}
    for values in maps:
        for name, value in values.items():
            value = float(value)
            if name not in merged or value > merged[name]:
                merged[name] = value
    return dict(sorted(merged.items()))


def merge_histograms(snapshots: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Merge histogram ``as_dict`` payloads bucket by bucket."""
    merged = Histogram("merged")
    for snap in snapshots:
        merged.merge(snap)
    return merged.as_dict()


def merge_snapshots(
    snapshots: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """Merge whole registry snapshots into one snapshot-shaped dict."""
    snapshots = list(snapshots)
    hist_names: dict[str, list[dict[str, Any]]] = {}
    for snap in snapshots:
        for name, hist in (snap.get("histograms") or {}).items():
            hist_names.setdefault(name, []).append(hist)
    return {
        "counters": merge_counters(
            snap.get("counters") or {} for snap in snapshots
        ),
        "gauges": merge_gauges(
            snap.get("gauges") or {} for snap in snapshots
        ),
        "histograms": {
            name: merge_histograms(hists)
            for name, hists in sorted(hist_names.items())
        },
    }


def _labels(entry: dict[str, Any]) -> dict[str, str]:
    """A member entry's ``shard`` (absent for the coordinator) and
    ``role`` labels."""
    labels = {}
    if entry.get("shard") is not None:
        labels["shard"] = str(entry["shard"])
    labels["role"] = str(entry.get("role", "unknown"))
    return labels


def build_groups(members: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Group live, obs-enabled member entries by label set and merge.

    ``members`` entries follow the federated shape the coordinator
    builds: ``shard`` (absent for the coordinator itself), ``role``,
    ``alive``, ``enabled`` and ``metrics``.  Replicas of the same shard
    share the ``(shard, role)`` label set, so their snapshots merge into
    one series instead of colliding.
    """
    grouped: dict[tuple, dict[str, Any]] = {}
    for entry in members:
        if not entry.get("alive") or not entry.get("enabled"):
            continue
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            continue
        labels = _labels(entry)
        key = tuple(sorted(labels.items()))
        bucket = grouped.setdefault(key, {"labels": labels, "snapshots": []})
        bucket["snapshots"].append(metrics)
    groups: list[dict[str, Any]] = []
    for key in sorted(grouped):
        bucket = grouped[key]
        groups.append({
            "labels": bucket["labels"],
            "members": len(bucket["snapshots"]),
            "metrics": merge_snapshots(bucket["snapshots"]),
        })
    return groups


def render_prometheus_cluster(federated: dict[str, Any]) -> str:
    """Prometheus text exposition of a federated cluster pull.

    Unlike the process scrape, nothing is zero-filled from the catalog:
    only series members actually reported appear, each labeled with its
    merged group's ``shard``/``role``.  The per-member liveness and
    per-replica lag gauges (``replica`` index labeled) follow, derived
    from the member entries rather than any registry.  ``federated`` is
    the dict :meth:`repro.cluster.coordinator.ClusterStore.federated_metrics`
    returns.
    """
    groups = [
        (group.get("labels") or {}, group.get("metrics") or {})
        for group in federated.get("groups") or []
    ]
    members = []
    for entry in federated.get("members") or []:
        labels = _labels(entry)
        if entry.get("replica") is not None:
            labels["replica"] = str(entry["replica"])
        gauges = {"cluster.member.up": 1 if entry.get("alive") else 0}
        if entry.get("role") == "replica" and entry.get("alive"):
            for name, key in (("cluster.lag.lsn", "lag_lsn"),
                              ("cluster.lag.seconds", "lag_seconds")):
                if entry.get(key) is not None:
                    gauges[name] = float(entry[key])
        members.append((labels, {"gauges": gauges}))
    lines = prometheus_lines(groups) + prometheus_lines(members)
    return "\n".join(lines) + "\n"
