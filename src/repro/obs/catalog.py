"""The catalog of sanctioned metric and event names.

Every counter / gauge / histogram registered anywhere in the tree,
and every cluster event recorded, must be declared here first.  The point
is hygiene at scale: a typo at one call site ("service.store.querys")
would otherwise fork a series that dashboards read as zero forever.  So
the registry (:mod:`repro.obs.metrics`) refuses to register a name that
is not in its kind's set below, and :func:`repro.obs.events.event`
refuses an uncataloged event name.  Every registration and event handle
is bound at module level, so a typo fails at import.

Each entry maps the name to its one-line contract; the help text is also
emitted as the Prometheus ``# HELP`` line, and
:meth:`~repro.obs.metrics.Registry.render_prometheus` renders *every*
cataloged metric — zero-valued when nothing registered it yet — so the
scrape surface is identical across restarts and code paths.

Names are lowercase dotted paths (``subsystem.component.what``).  Keep
each kind's dict sorted by name.
"""

from __future__ import annotations

#: Every counter name the tree is allowed to register -> its contract.
COUNTER_HELP: dict[str, str] = {
    "cluster.coordinator.federation_errors":
        "member metrics pulls that failed",
    "cluster.coordinator.federation_pulls":
        "member metrics snapshots pulled by the federation collector",
    "cluster.coordinator.queries": "queries evaluated by the coordinator",
    "cluster.coordinator.rpc_errors": "shard RPCs failed at transport level",
    "cluster.coordinator.single_shard":
        "queries that are one subject star on one shard",
    "cluster.coordinator.star_queries":
        "queries that are one subject star on more than one shard",
    "cluster.coordinator.star_requests":
        "per-shard star sub-queries of queries joined at the coordinator",
    "cluster.coordinator.updates": "updates routed to owner shards",
    "cluster.worker.requests": "RPC requests served by this worker",
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
    "obs.workload.overflow": "query records folded into the overflow shape",
    "obs.workload.records": "queries folded into the workload registry",
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
    "cluster.member.up":
        "1 when the member answered the last federation pull, else 0",
    "obs.workload.shapes": "distinct query shapes currently tracked",
    "process.rss_bytes": "resident set size (from /proc/self/status)",
    "process.uptime_seconds": "seconds since the obs layer was loaded",
}

#: Every fixed-bucket latency-histogram name the tree is allowed to
#: register -> its contract.
HISTOGRAM_HELP: dict[str, str] = {
    "cluster.coordinator.rpc_ms": "coordinator-to-shard RPC latency",
    "engine.query_ms": "end-to-end SPARQLT evaluation",
    "optimizer.rebuild_ms":
        "statistics (re)build wall time - the stall a refresh imposes",
    "service.server.request_ms": "HTTP request wall time (per request)",
    "service.snapshot.load_ms": "snapshot load wall time",
    "service.snapshot.save_ms": "snapshot save wall time",
    "service.store.query_ms": "store-level query latency",
    "service.store.update_ms": "store-level durable-update latency",
    "service.wal.sync_ms": "WAL group-commit fsync latency",
}

#: Every cluster event-log name the tree is allowed to record -> its
#: contract.  Events are state transitions, not series: they flow into
#: :class:`repro.obs.events.EventLog` rings and structured log lines
#: rather than the metrics registry.
EVENT_HELP: dict[str, str] = {
    "cluster.event.member_dead": "a member stopped answering RPCs",
    "cluster.event.worker_ready":
        "a started worker reported its port (start-up timings attached)",
    "cluster.event.worker_started":
        "the coordinator started a worker process and has not awaited it",
}

#: Sanctioned names per kind (the sets registration checks against).
COUNTERS = frozenset(COUNTER_HELP)
GAUGES = frozenset(GAUGE_HELP)
HISTOGRAMS = frozenset(HISTOGRAM_HELP)

#: Sanctioned event-log names (the set :func:`repro.obs.events.event`
#: checks against).
EVENTS = frozenset(EVENT_HELP)

#: name -> help text, any kind.
HELP = {**COUNTER_HELP, **GAUGE_HELP, **HISTOGRAM_HELP}


def require(name: str, names: frozenset[str], kind: str) -> None:
    """Raise ``KeyError`` unless ``names``, one kind's set above, lists
    ``name``."""
    if name not in names:
        raise KeyError(f"{kind} {name!r} is not in repro.obs.catalog")


def help_for(name: str) -> str:
    """The cataloged one-line contract ('' for ad-hoc names)."""
    return HELP.get(name, "")

