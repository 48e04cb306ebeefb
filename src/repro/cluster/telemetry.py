"""What a cluster reports about itself: health, federated metrics, events.

:class:`ClusterTelemetry` is the reporting half of
:class:`~repro.cluster.coordinator.ClusterStore`, which inherits it and
provides the state it reads (``_membership``, ``planner``,
``_watermark``, ``_horizon``, ``_scatter_pool``, ``_closed``).  Every
pull asks each worker process directly over its own client and never
raises for one member: a dead, unreachable or erroring worker comes back
as an ``alive: false`` entry, so a single crashed worker cannot take down
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
from .worker import ROLE

_FEDERATION_PULLS = _metrics.counter("cluster.coordinator.federation_pulls")
_FEDERATION_ERRORS = _metrics.counter(
    "cluster.coordinator.federation_errors"
)


def _ask(client: ShardClient,
         request: Request[R]) -> tuple[R | None, str | None]:
    """``(reply, None)``, or ``(None, why)`` from a member that is dead,
    unreachable or answered with an error."""
    try:
        return client.rpc(request, timeout=5.0), None
    except (OSError, ProtocolError, StoreError) as error:
        return None, str(error)


def _health(client: ShardClient) -> dict:
    """One worker's ``cluster_status`` entry."""
    status, error = _ask(client, protocol.Status())
    if status is None:
        return {"role": ROLE, "pid": client.pid, "alive": False,
                "error": error}
    return {"role": status.role, "pid": status.pid, "alive": True,
            "applied_lsn": status.revision,
            "live_facts": status.live_facts}


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
        """Per-shard health: role, applied LSN, liveness, pid."""
        members = [{"shard": member.shard_id,
                    "primary": _health(member.primary)}
                   for member in self._membership.members]
        return {
            "shards": self.planner.shards,
            "watermark": self._watermark,
            "horizon": self._horizon,
            "members": members,
        }

    def storage_report(self) -> dict:
        """Cluster-shaped ``/debug/storage`` payload."""
        return {"cluster": self.cluster_status()}

    # ------------------------------------------------------------ federation

    def _pull_member(self, member: Member) -> dict:
        """One worker's registry snapshot."""
        client = member.primary
        entry: dict = {
            "shard": member.shard_id, "role": ROLE, "pid": client.pid,
            "alive": False, "enabled": False, "metrics": {},
        }
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
        return entry

    def federated_metrics(self, max_age: float = 2.0,
                          force: bool = False) -> dict:
        """Pull every member's metrics snapshot.

        Returns the federated shape ``/metrics?scope=cluster`` serves:
        ``members`` (one raw entry per process, coordinator first) and
        ``groups`` (one labeled snapshot per live, enabled member — see
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
        futures = [self._scatter_pool.submit(self._pull_member, member)
                   for member in self._membership.members]
        members.extend(future.result() for future in futures)
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
            if not member.primary.alive:
                continue
            pulled, _ = _ask(member.primary, protocol.Events(limit=limit))
            if pulled is not None:
                events.extend(pulled.events)
        events.sort(key=lambda event: event.get("ts", 0.0), reverse=True)
        return events[:limit]
