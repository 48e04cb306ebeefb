"""The catalog of sanctioned metric names.

Every counter / gauge / timer / histogram registered anywhere in the tree must be
declared here first.  The point is hygiene at scale: the global registry
(:mod:`repro.obs.metrics`) will happily mint a metric for any string, so a
typo at one call site silently forks a counter ("service.store.querys")
and dashboards read zeros forever.  ``repro-tx lint`` rules RL009 and
RL012 cross-check every registration call against this catalog, making
the drift a review-time error instead.

Each entry maps the name to its one-line contract; the help text is also
emitted as the Prometheus ``# HELP`` line, and
:meth:`~repro.obs.metrics.Registry.render_prometheus` renders *every*
cataloged metric — zero-valued when nothing registered it yet — so the
scrape surface is identical across restarts and code paths.

Keep each kind's dict sorted by name.
"""

from __future__ import annotations

import re

#: Metric names must be lowercase dotted paths: ``subsystem.component.what``.
NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Every counter name the tree is allowed to register -> its contract.
COUNTER_HELP: dict[str, str] = {
    "cluster.coordinator.failovers": "replica promotions after primary death",
    "cluster.coordinator.federation_errors":
        "member metrics pulls that failed",
    "cluster.coordinator.federation_pulls":
        "member metrics snapshots pulled by the federation collector",
    "cluster.coordinator.queries": "queries evaluated by the coordinator",
    "cluster.coordinator.replica_lagging":
        "replica reads refused behind the acked LSN",
    "cluster.coordinator.replica_reads": "reads served by a replica",
    "cluster.coordinator.rpc_errors": "shard RPCs failed at transport level",
    "cluster.coordinator.scatter_scans": "per-shard scatter scan requests",
    "cluster.coordinator.single_shard": "queries on the single-shard fast path",
    "cluster.coordinator.updates": "updates routed to owner shards",
    "cluster.worker.replicated": "WAL records applied from the primary",
    "cluster.worker.replicated_bytes":
        "encoded WAL bytes applied from the primary",
    "cluster.worker.requests": "RPC requests served by this worker",
    "cluster.worker.resyncs": "full snapshot resyncs performed",
    "cluster.worker.wal_shipped": "WAL records shipped to followers",
    "cluster.worker.wal_shipped_bytes":
        "encoded WAL bytes shipped to followers",
    "engine.filter_rows_in": "rows entering a FILTER operator",
    "engine.filter_rows_out": "rows surviving a FILTER operator",
    "engine.hash_join_rows": "rows emitted by hash joins",
    "engine.hash_joins": "hash-join operator executions",
    "engine.index_scan_rows": "rows emitted by index scans",
    "engine.index_scans": "index-scan operator executions",
    "engine.plan_cache.evictions": "compiled plans evicted (LRU)",
    "engine.plan_cache.hits": "compile calls served from cache",
    "engine.plan_cache.misses": "compile calls that planned afresh",
    "engine.queries": "SPARQLT queries evaluated",
    "engine.sync_join_rows": "rows emitted by synchronized joins",
    "engine.sync_joins": "synchronized-join executions",
    "mvbt.compression.bytes_decoded": "compressed bytes expanded",
    "mvbt.compression.entries_decoded": "entries expanded from buffers",
    "mvbt.compression.leaves_decoded": "leaf-buffer cache misses",
    "mvbt.compression.packed_entries_skipped":
        "entries filtered by packed scans without materializing",
    "mvbt.compression.packed_scans": "leaf scans answered over packed bytes",
    "mvbt.compression.seek_records":
        "records looked at by packed-leaf edits (live-index walks + seeks)",
    "mvbt.scan.entries_examined": "entries touched by scans",
    "mvbt.scan.entries_emitted": "entries passing scan predicates",
    "mvbt.scan.entries_pruned": "entries skipped by pruning",
    "mvbt.scan.leaves_visited": "leaf nodes visited by scans",
    "mvbt.scan.scans": "range-interval scans started",
    "mvbt.tree.deletes": "logical deletes applied",
    "mvbt.tree.inserts": "inserts applied",
    "mvbt.tree.key_splits": "key splits performed",
    "mvbt.tree.merges": "merges performed",
    "mvbt.tree.version_splits": "version splits performed",
    "obs.profiler.profiles": "sampling-profiler runs completed",
    "obs.profiler.samples": "thread stack samples captured by the profiler",
    "obs.workload.overflow": "query records folded into the overflow shape",
    "obs.workload.records": "queries folded into the workload registry",
    "optimizer.drift.refreshes":
        "statistics rebuilds triggered by sustained estimate drift",
    "optimizer.drift.samples": "queries profiled by the drift monitor",
    "optimizer.rebuilds": "temporal-histogram (re)builds, load and refresh",
    "service.cache.evictions": "result-cache entries evicted (LRU)",
    "service.cache.hits": "queries served from the result cache",
    "service.cache.invalidations": "wholesale result-cache clears",
    "service.cache.misses": "result-cache lookups that missed",
    "service.server.errors": "unexpected 500s (see error_id log)",
    "service.server.rejected": "admissions rejected with 503",
    "service.server.requests": "HTTP requests received",
    "service.server.timeouts": "requests past deadline (504)",
    "service.snapshot.loads": "snapshots loaded",
    "service.snapshot.saves": "snapshots written",
    "service.store.checkpoints": "checkpoints completed",
    "service.store.queries": "store queries served",
    "service.store.replay_skipped": "WAL records skipped during recovery",
    "service.store.replayed_records": "WAL records re-applied on recovery",
    "service.store.updates": "durable updates applied",
    "service.wal.appends": "WAL records appended",
    "service.wal.syncs": "WAL fsync group commits",
    "service.wal.torn_tails": "torn WAL tails repaired on open",
}

#: Every gauge name the tree is allowed to register -> its contract.
GAUGE_HELP: dict[str, str] = {
    "cluster.coordinator.shards_alive": "shards with a live primary",
    "cluster.coordinator.watermark":
        "cluster revision watermark (total applied LSNs)",
    "cluster.lag.lsn":
        "per-replica LSN lag: acked_lsn minus the replica's applied LSN",
    "cluster.lag.max_lsn":
        "worst per-replica LSN lag across the cluster at the last pull",
    "cluster.lag.max_seconds":
        "worst per-replica seconds-behind across the cluster at the last pull",
    "cluster.lag.seconds":
        "per-replica seconds behind the primary, from shipped-record stamps",
    "cluster.member.up":
        "1 when the member answered the last federation pull, else 0",
    "obs.workload.shapes": "distinct query shapes currently tracked",
    "optimizer.drift.max_qerror":
        "worst per-pattern q-error in the drift window",
    "optimizer.drift.median_qerror":
        "median per-pattern q-error over the drift window",
    "process.rss_bytes": "resident set size (from /proc/self/status)",
    "process.uptime_seconds": "seconds since the obs layer was loaded",
}

#: Every timer-stat name the tree is allowed to register -> its contract.
TIMER_HELP: dict[str, str] = {
    "engine.query": "end-to-end SPARQLT evaluation",
    "service.server.request": "HTTP request wall time",
    "service.snapshot.load": "snapshot load wall time",
    "service.snapshot.save": "snapshot save wall time",
}

#: Every fixed-bucket latency-histogram name the tree is allowed to
#: register -> its contract.
HISTOGRAM_HELP: dict[str, str] = {
    "cluster.coordinator.rpc_ms": "coordinator-to-shard RPC latency",
    "optimizer.rebuild_ms":
        "statistics (re)build wall time - the stall a refresh imposes",
    "service.server.request_ms": "HTTP request wall time (per request)",
    "service.store.query_ms": "store-level query latency",
    "service.store.update_ms": "store-level durable-update latency",
    "service.wal.sync_ms": "WAL group-commit fsync latency",
}

#: Every cluster event-log name the tree is allowed to record -> its
#: contract.  Events are state transitions, not series: they flow into
#: :class:`repro.obs.events.EventLog` rings and structured log lines
#: rather than the metrics registry.  Lint rule RL017 checks ``record``
#: call sites against this set.
EVENT_HELP: dict[str, str] = {
    "cluster.event.diverged":
        "a replica's WAL diverged from the primary; full resync forced",
    "cluster.event.failover": "a shard primary died; promotion started",
    "cluster.event.member_dead": "a member stopped answering RPCs",
    "cluster.event.promote_failed":
        "a promotion attempt failed; trying the next replica",
    "cluster.event.promote_gap":
        "a promoted replica had a WAL gap it could not close",
    "cluster.event.promoted": "a replica took over as shard primary",
    "cluster.event.replica_lagging":
        "a pinned read fell back to the primary (replica behind acked LSN)",
    "cluster.event.replication_gap":
        "a replica fell behind the primary's shipped WAL window; resyncing",
    "cluster.event.resync": "a replica completed a full snapshot resync",
    "cluster.event.update_recovered":
        "an update acknowledged via the shipped WAL after a mid-write failover",
    "cluster.event.worker_ready":
        "a started worker reported its port (start-up timings attached)",
    "cluster.event.worker_started":
        "the coordinator started a worker process and has not awaited it",
}

#: Sanctioned names per kind (the sets RL009/RL012 check against).
COUNTERS = frozenset(COUNTER_HELP)
GAUGES = frozenset(GAUGE_HELP)
TIMERS = frozenset(TIMER_HELP)
HISTOGRAMS = frozenset(HISTOGRAM_HELP)

#: Sanctioned event-log names (the set RL017 checks against).
EVENTS = frozenset(EVENT_HELP)

#: Union of all sanctioned names, any kind.
ALL_METRICS = COUNTERS | GAUGES | TIMERS | HISTOGRAMS

#: name -> help text, any kind.
HELP = {**COUNTER_HELP, **GAUGE_HELP, **TIMER_HELP, **HISTOGRAM_HELP}


def help_for(name: str) -> str:
    """The cataloged one-line contract ('' for ad-hoc names)."""
    return HELP.get(name, "")


def is_registered(name: str) -> bool:
    """Whether ``name`` is a sanctioned metric of any kind."""
    return name in ALL_METRICS


def is_event(name: str) -> bool:
    """Whether ``name`` is a sanctioned cluster event-log name."""
    return name in EVENTS


def is_well_formed(name: str) -> bool:
    """Whether ``name`` matches the dotted lowercase naming convention."""
    return NAME_PATTERN.match(name) is not None
