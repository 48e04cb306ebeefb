"""Sharded multi-process execution: one worker process per shard.

The single-process serving stack (:mod:`repro.service`) is GIL-bound: the
PR 4 thread-pool scans overlap I/O but not Python execution, so HTTP read
throughput tops out near one core.  This package scales *out* instead of
up, on one box or many:

* :mod:`repro.cluster.planner` — hash-partitions triples on subject
  across N shared-nothing shards, deterministically (``crc32``, never the
  salted ``hash()``), and routes each subject star by its subject alone.
* :mod:`repro.cluster.protocol` — the coordinator <-> worker wire,
  defined once: length-prefixed JSON frames, one request and one reply
  dataclass per op, one codec, one ``kind`` <-> exception table.
* :mod:`repro.cluster.client` — ``ShardClient``, the pooled typed RPC
  client the coordinator holds per worker.
* :mod:`repro.cluster.worker` — one process per shard, each running its
  own full :class:`~repro.service.store.TemporalStore` (engine + WAL +
  snapshots) behind a handler per request class.
* :mod:`repro.cluster.membership` — bring-up, the per-shard member
  table and the RPC path, which raises ``ShardDown`` for a dead worker.
* :mod:`repro.cluster.coordinator` — ``ClusterStore``, the router the
  HTTP server fronts: asks each subject star of a query of the shards
  that can answer it, and routes writes to the owning shard under a
  cluster-wide revision watermark.
* :mod:`repro.cluster.telemetry` — ``ClusterStore``'s reporting half:
  per-member health, federated metrics, the merged event log.
* :mod:`repro.cluster.executor` — the one query route: a query that is
  one subject star goes whole to its shards, and any other joins its
  stars' answers under the engine's own group algebra.

A shard is durable through its own WAL and snapshot: a cluster reopened
over the same directory recovers every acknowledged write.  There are no
replicas.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ClusterStore": ".coordinator",
    "ShardPlanner": ".planner",
    "shard_of": ".planner",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
