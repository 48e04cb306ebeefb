"""Storage health introspection: MVBT forest, dictionary, WAL, caches.

:func:`engine_report` walks each index's node registry (cheap: node
counts and cached live counts only — compressed leaves are *not*
decoded) and reports per-tree depth, node/leaf counts, live-vs-dead
entry ratios, leaf fill, and compression ratios, plus dictionary,
plan-cache and decoded-leaf memo occupancy.
:meth:`~repro.service.store.TemporalStore.storage_report`
wraps it under the store's read lock and adds WAL and result-cache
stats; both feed ``GET /debug/storage`` and ``repro-tx doctor``.

:func:`find_anomalies` turns a report into human-readable warnings
(mismatched live counts, uncompressed leaves, an overdue checkpoint), and :func:`render_report` prints the health
report ``repro-tx doctor`` shows.

Process-level helpers (:func:`process_uptime_seconds`,
:func:`process_rss_bytes`) back the ``process.*`` gauges on
``/metrics`` and the extended ``/healthz`` payload.
"""

from __future__ import annotations

import time

#: Wall-clock at module import — a serving process imports the obs layer
#: during startup, so this approximates process start well enough for an
#: uptime gauge.
_STARTED_AT = time.time()

#: Average live-leaf fill below this fraction of ``block_capacity`` is
#: flagged (the forest is mostly dead weight or badly split).
LOW_FILL = 0.25

#: Dead-to-total entry ratio above this is flagged as history-heavy.
HIGH_DEAD_RATIO = 0.9

#: WAL records pending replay above this suggest an overdue checkpoint.
CHECKPOINT_BACKLOG = 10_000


# ------------------------------------------------------------ process state


def process_uptime_seconds() -> float:
    """Seconds since the observability layer was imported."""
    return time.time() - _STARTED_AT


def process_rss_bytes() -> int | None:
    """Resident set size from ``/proc/self/status`` (None off Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


# ------------------------------------------------------------- MVBT forest


def tree_report(tree) -> dict:
    """Structural health of one MVBT (no leaf decoding).

    Walks the registry-reachable nodes once, using the cached ``count``
    and ``live_count`` node properties — compressed leaves stay
    compressed, so the walk is safe on a serving store.
    """
    from ..mvbt.compression import NODE_HEADER_BYTES, STANDARD_ENTRY_BYTES

    nodes = leaves = index_nodes = live_nodes = 0
    entries = live_entries = 0
    compressed_leaves = live_leaves = sealed_leaves = 0
    live_leaf_entries = live_index_bytes = 0
    size_bytes = 0
    uncompressed_bytes = 0
    for node in tree.iter_nodes():
        nodes += 1
        count = node.count
        entries += count
        live_entries += node.live_count
        size_bytes += node.sizeof()
        uncompressed_bytes += NODE_HEADER_BYTES + STANDARD_ENTRY_BYTES * count
        if node.is_alive:
            live_nodes += 1
        if node.is_leaf:
            leaves += 1
            if node.is_compressed:
                compressed_leaves += 1
            if node.is_alive:
                live_leaves += 1
                live_leaf_entries += node.live_count
                live_index_bytes += node.index_bytes
            elif node.is_compressed:
                sealed_leaves += 1
        else:
            index_nodes += 1
    capacity = tree.config.block_capacity
    depth = _live_depth(tree)
    return {
        "depth": depth,
        "nodes": nodes,
        "leaves": leaves,
        "index_nodes": index_nodes,
        "live_nodes": live_nodes,
        "entries": entries,
        "live_entries": live_entries,
        "live_ratio": live_entries / entries if entries else 0.0,
        "compressed_leaves": compressed_leaves,
        # Every leaf of a packed tree is a byte buffer from birth (sealed
        # = dead ones), so a plain leaf there is an anomaly.
        "packed": tree.is_packed,
        "sealed_leaves": sealed_leaves,
        "plain_leaves": leaves - compressed_leaves,
        "live_leaves": live_leaves,
        "live_leaf_fill": (
            live_leaf_entries / (live_leaves * capacity)
            if live_leaves else 0.0
        ),
        "size_bytes": size_bytes,
        "live_index_bytes": live_index_bytes,
        "compression_ratio": (
            size_bytes / uncompressed_bytes if uncompressed_bytes else 1.0
        ),
        "live_records": tree.live_records,
        "total_versions": tree.total_versions,
        "current_time": tree.current_time,
    }


def _live_depth(tree) -> int:
    """Height of the live version: root-to-leaf along live routing."""
    node = tree.live_root
    depth = 1
    while not node.is_leaf:
        live = node.live_entries()
        if not live:
            break
        node = live[0].child
        depth += 1
    return depth


def engine_report(engine) -> dict:
    """Health of a whole engine: all three indexes + dictionary + caches.

    Callers serving live traffic must hold the store's read lock (see
    ``TemporalStore.storage_report``); a freshly loaded offline engine
    (``repro-tx doctor DATASET``) needs no locking.
    """
    indexes = {
        name: tree_report(tree) for name, tree in engine.indexes.items()
    }
    dictionary = None
    if engine.dictionary is not None:
        dictionary = {
            "terms": len(engine.dictionary),
            "size_bytes": engine.dictionary.sizeof(),
        }
    return {
        "indexes": indexes,
        "dictionary": dictionary,
        "plan_cache": {
            "entries": len(engine._plan_cache),
            "capacity": engine._plan_cache.capacity,
        },
        # Resident records, memoized leaves, intern-pool objects, budget.
        "decoded_memo": engine.memo.report(),
        "statistics": _statistics_report(engine),
        "total_size_bytes": engine.sizeof(),
    }


def _statistics_report(engine) -> dict:
    """The optimizer's histogram: its size against its budget and the
    thresholds it builds at (writes keep all three current)."""
    report = {
        "optimizer": engine.optimizer is not None,
        "histogram_bytes": None, "budget_bytes": None, "cm": None, "lm": None,
    }
    statistics = getattr(engine.optimizer, "statistics", None)
    if statistics is not None:
        histogram = statistics.histogram
        report.update(
            histogram_bytes=histogram.core_sizeof(),
            budget_bytes=int(histogram.budget_fraction * histogram.raw_bytes),
            cm=histogram.cm, lm=histogram.lm,
        )
    return report


# ---------------------------------------------------------------- anomalies


def find_anomalies(report: dict) -> list[str]:
    """Human-readable warnings derived from a storage report."""
    warnings: list[str] = []
    indexes = report.get("indexes", {})
    live_counts = {
        name: tree["live_records"] for name, tree in indexes.items()
    }
    if len(set(live_counts.values())) > 1:
        warnings.append(
            f"live record counts disagree across indexes: {live_counts} "
            f"(possible index corruption)"
        )
    for name, tree in indexes.items():
        if tree["packed"] and tree["plain_leaves"]:
            warnings.append(
                f"index {name}: {tree['plain_leaves']} leaf/leaves "
                f"not delta-compressed (partial compression)"
            )
        if tree["live_leaves"] and tree["live_leaf_fill"] < LOW_FILL:
            warnings.append(
                f"index {name}: average live-leaf fill "
                f"{tree['live_leaf_fill']:.0%} is below {LOW_FILL:.0%} "
                f"of block capacity"
            )
        if tree["entries"] and 1.0 - tree["live_ratio"] > HIGH_DEAD_RATIO:
            warnings.append(
                f"index {name}: {1.0 - tree['live_ratio']:.0%} of entries "
                f"are historical — reads of the live version pay for deep "
                f"history"
            )
    store = report.get("store") or {}
    wal = store.get("wal") or {}
    if wal.get("pending_records"):
        warnings.append(
            f"WAL has {wal['pending_records']} record(s) pending group "
            f"commit (unsynced tail)"
        )
    if (wal.get("records_since_checkpoint") or 0) > CHECKPOINT_BACKLOG:
        warnings.append(
            f"{wal['records_since_checkpoint']} WAL record(s) since the "
            f"last checkpoint — restarts replay them all"
        )
    return warnings


# ---------------------------------------------------------------- rendering


def render_report(report: dict) -> str:
    """The aligned health report ``repro-tx doctor`` prints."""
    lines: list[str] = []
    indexes = report.get("indexes", {})
    if indexes:
        header = ["index", "depth", "nodes", "leaves", "live%", "fill%",
                  "compr", "bytes", "idx-bytes"]
        rows = []
        for name, tree in sorted(indexes.items()):
            rows.append([
                name,
                str(tree["depth"]),
                str(tree["nodes"]),
                str(tree["leaves"]),
                f"{100.0 * tree['live_ratio']:.0f}",
                f"{100.0 * tree['live_leaf_fill']:.0f}",
                f"{tree['compression_ratio']:.2f}",
                str(tree["size_bytes"]),
                str(tree["live_index_bytes"]),
            ])
        widths = [
            max(len(header[i]), max(len(r[i]) for r in rows))
            for i in range(len(header))
        ]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        any_tree = next(iter(indexes.values()))
        lines.append(
            f"live facts: {any_tree['live_records']}  "
            f"versions: {any_tree['total_versions']}  "
            f"watermark chronon: {any_tree['current_time']}"
        )
    dictionary = report.get("dictionary")
    if dictionary:
        lines.append(
            f"dictionary: {dictionary['terms']} table term(s), "
            f"{dictionary['size_bytes']} bytes"
        )
    plan_cache = report.get("plan_cache")
    if plan_cache:
        lines.append(
            f"plan cache: {plan_cache['entries']}/{plan_cache['capacity']}"
        )
    memo = report.get("decoded_memo")
    if memo:
        lines.append(
            f"decoded-leaf memo: {memo['entries']}/{memo['budget']} "
            f"record(s) in {memo['leaves']} leaf/leaves, "
            f"{memo['interned']} interned object(s)"
        )
    stats = report.get("statistics")
    if stats:
        line = f"optimizer: {'on' if stats.get('optimizer') else 'off'}"
        if stats.get("histogram_bytes") is not None:
            line += (
                f", histogram {stats['histogram_bytes']} of "
                f"{stats['budget_bytes']} budget bytes "
                f"(cm {stats['cm']}, lm {stats['lm']})"
            )
        lines.append(line)
    store = report.get("store")
    if store:
        lines.append(
            f"revision: {store.get('revision')}  "
            f"result cache: {store.get('result_cache')}"
        )
        wal = store.get("wal") or {}
        if wal:
            lines.append(
                f"WAL: {wal.get('size_bytes', 0)} bytes, next LSN "
                f"{wal.get('next_lsn')}, {wal.get('pending_records', 0)} "
                f"pending, fsync={'on' if wal.get('fsync') else 'off'}"
            )
    total = report.get("total_size_bytes")
    if total is not None:
        lines.append(f"total index + dictionary size: {total} bytes")
    return "\n".join(lines)
