"""What a cluster reports about itself: health, federated metrics, events.

:class:`ClusterTelemetry` is the reporting half of
:class:`~repro.cluster.coordinator.ClusterStore`, which inherits it and
provides the state it reads (``_membership``, ``planner``,
``replicas_per_shard``, ``_watermark``, ``_horizon``, ``_scatter_pool``,
``_closed``).  Every pull asks each
worker process directly over its own client and never raises for one
member: a dead, unreachable or erroring worker comes back as an
``alive: false`` entry, so a single crashed worker cannot take down
``/debug/storage``, ``/metrics?scope=cluster`` or ``/debug/events``.
"""

from __future__ import annotations

import os
import threading
import time as _time

from ..obs import events as _events
from ..obs import federation as _federation
from ..obs import metrics as _metrics
from ..service.sanitizer import sanitized_lock
from ..service.store import StoreError
from . import protocol
from .client import ShardClient
from .membership import Member
from .protocol import ProtocolError, R, Request

_FEDERATION_PULLS = _metrics.counter("cluster.coordinator.federation_pulls")
_FEDERATION_ERRORS = _metrics.counter(
    "cluster.coordinator.federation_errors"
)
_LAG_MAX_LSN = _metrics.gauge("cluster.lag.max_lsn")
_LAG_MAX_SECONDS = _metrics.gauge("cluster.lag.max_seconds")


def _ask(client: ShardClient,
         request: Request[R]) -> tuple[R | None, str | None]:
    """``(reply, None)``, or ``(None, why)`` from a member that is dead,
    unreachable or answered with an error."""
    try:
        return client.rpc(request, timeout=5.0), None
    except (OSError, ProtocolError, StoreError) as error:
        return None, str(error)


def _replica_lag(
    member: Member, reply: protocol.StatusReply | protocol.MetricsReply,
) -> dict:
    """A replica's applied LSN and its lag behind the shard's acked LSN."""
    return {
        "applied_lsn": reply.revision,
        "lag_lsn": max(0, member.acked_lsn - reply.revision),
        "lag_seconds": reply.lag_seconds,
    }


def _health(member: Member, role: str, client: ShardClient) -> dict:
    """One worker's ``cluster_status`` entry."""
    status, error = _ask(client, protocol.Status())
    if status is None:
        return {"role": role, "pid": client.pid, "alive": False,
                "error": error}
    health = {"role": status.role, "pid": status.pid, "alive": True}
    if role == "replica":
        health.update(_replica_lag(member, status))
    else:
        health.update(applied_lsn=status.revision,
                      live_facts=status.live_facts)
    return health


class ClusterTelemetry:
    """Health, metrics and event reporting over a :class:`Membership`."""

    def __init__(self) -> None:
        #: guards only the federated-metrics cache; the member RPCs run
        #: outside it so a slow worker never blocks cache readers.
        self._federation_lock = sanitized_lock(
            threading.Lock(), "cluster.federation", allow_blocking=False
        )
        self._federation_cache: dict | None = None
        self._federation_ts = 0.0

    # --------------------------------------------------------------- health

    def cluster_status(self) -> dict:
        """Per-member health: role, applied LSN, liveness, pid."""
        members = []
        for member in self._membership.members:
            primary, *replicas = (
                _health(member, role, client)
                for role, _, client in member.processes()
            )
            members.append({
                "shard": member.shard_id, "acked_lsn": member.acked_lsn,
                "primary": primary, "replicas": replicas,
            })
        return {
            "shards": self.planner.shards,
            "replicas_per_shard": self.replicas_per_shard,
            "watermark": self._watermark,
            "horizon": self._horizon,
            "members": members,
        }

    def storage_report(self) -> dict:
        """Cluster-shaped ``/debug/storage`` payload."""
        return {"cluster": self.cluster_status()}

    # ------------------------------------------------------------ federation

    def _pull_member(self, member: Member, role: str, index: int | None,
                     client: ShardClient) -> dict:
        """One worker's registry snapshot (plus lag, for replicas)."""
        entry: dict = {
            "shard": member.shard_id, "role": role, "pid": client.pid,
            "alive": False, "enabled": False, "metrics": {},
        }
        if index is not None:
            entry["replica"] = index
        if not client.alive:
            return entry
        pulled, error = _ask(client, protocol.Metrics())
        if pulled is None:
            if _metrics.ENABLED:
                _FEDERATION_ERRORS.inc()
            entry["error"] = error
            return entry
        entry.update(alive=True, enabled=pulled.enabled,
                     metrics=pulled.metrics)
        if role == "replica":
            entry.update(_replica_lag(member, pulled))
        return entry

    def federated_metrics(self, max_age: float = 2.0,
                          force: bool = False) -> dict:
        """Pull and merge every member's metrics snapshot.

        Returns the federated shape ``/metrics?scope=cluster`` serves:
        ``members`` (one raw entry per process, coordinator first, with
        per-replica ``lag_lsn``/``lag_seconds``) and ``groups`` (one
        merged snapshot per ``(shard, role)`` label set — see
        :func:`repro.obs.federation.build_groups`).  Pulls within
        ``max_age`` seconds are served from cache unless ``force``.
        """
        if self._closed:
            raise StoreError("store is closed")
        if not force:
            with self._federation_lock:
                cached = self._federation_cache
                if (cached is not None
                        and _time.time() - self._federation_ts < max_age):
                    return cached
        if _metrics.ENABLED:
            _FEDERATION_PULLS.inc()
        members: list[dict] = [{
            "role": "coordinator", "pid": os.getpid(), "alive": True,
            "enabled": _metrics.ENABLED,
            "metrics": (
                _metrics.REGISTRY.snapshot() if _metrics.ENABLED else {}
            ),
        }]
        futures = [
            self._scatter_pool.submit(self._pull_member, member, *process)
            for member in self._membership.members
            for process in member.processes()
        ]
        members.extend(future.result() for future in futures)
        if _metrics.ENABLED:
            _LAG_MAX_LSN.set(max(
                (e["lag_lsn"] for e in members if "lag_lsn" in e),
                default=0))
            _LAG_MAX_SECONDS.set(max(
                (e["lag_seconds"] for e in members
                 if e.get("lag_seconds") is not None), default=0.0))
        federated = {
            "scope": "cluster",
            "collected_at": round(_time.time(), 3),
            "watermark": self._watermark,
            "members": members,
            "groups": _federation.build_groups(members),
        }
        with self._federation_lock:
            self._federation_cache = federated
            self._federation_ts = _time.time()
        return federated

    # --------------------------------------------------------------- events

    def cluster_events(self, limit: int = 100) -> list[dict]:
        """Coordinator + member event rings merged, newest first."""
        if self._closed:
            raise StoreError("store is closed")
        events = list(_events.EVENTS.recent(limit))
        for member in self._membership.members:
            for _, _, client in member.processes():
                if not client.alive:
                    continue
                pulled, _ = _ask(client, protocol.Events(limit=limit))
                if pulled is not None:
                    events.extend(pulled.events)
        events.sort(key=lambda event: event.get("ts", 0.0), reverse=True)
        return events[:limit]
