"""Cluster metrics federation: label member snapshots, render them.

The coordinator pulls each member's registry snapshot (the worker
``metrics`` op).  Each ``(shard, role)`` label set is held by exactly one
process — the coordinator, or one shard's worker — so nothing is merged:
every live member's snapshot becomes one labeled group, rendered in the
Prometheus text format with those labels attached.  Everything here is
pure dict work over the wire shape of
:meth:`repro.obs.metrics.Registry.snapshot` — no sockets, no registry
mutation — so it is unit-testable without a cluster.
"""

from __future__ import annotations

from typing import Any, Iterable

from .metrics import prometheus_lines

__all__ = [
    "build_groups",
    "render_prometheus_cluster",
]


def _labels(entry: dict[str, Any]) -> dict[str, str]:
    """A member entry's ``shard`` (absent for the coordinator) and
    ``role`` labels."""
    labels = {}
    if entry.get("shard") is not None:
        labels["shard"] = str(entry["shard"])
    labels["role"] = str(entry.get("role", "unknown"))
    return labels


def build_groups(members: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """One labeled group per live, obs-enabled member entry, in order.

    ``members`` entries follow the federated shape the coordinator
    builds: ``shard`` (absent for the coordinator itself), ``role``,
    ``alive``, ``enabled`` and ``metrics``.  A group is the member's
    ``labels`` and its own ``metrics`` snapshot.
    """
    return [
        {"labels": _labels(entry), "metrics": entry["metrics"]}
        for entry in members
        if entry.get("alive") and entry.get("enabled")
        and isinstance(entry.get("metrics"), dict)
    ]


def render_prometheus_cluster(federated: dict[str, Any]) -> str:
    """Prometheus text exposition of a federated cluster pull.

    Unlike the process scrape, nothing is zero-filled from the catalog:
    only series members actually reported appear, each labeled with its
    group's ``shard``/``role``.  The per-member liveness gauge follows,
    derived from the member entries rather than any registry.
    ``federated`` is the dict
    :meth:`repro.cluster.coordinator.ClusterStore.federated_metrics`
    returns.
    """
    groups = [
        (group.get("labels") or {}, group.get("metrics") or {})
        for group in federated.get("groups") or []
    ]
    members = [
        (_labels(entry),
         {"gauges": {"cluster.member.up": 1 if entry.get("alive") else 0}})
        for entry in federated.get("members") or []
    ]
    lines = prometheus_lines(groups) + prometheus_lines(members)
    return "\n".join(lines) + "\n"
