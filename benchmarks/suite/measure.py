"""Shared pieces of the benchmark suite: the metric catalogue, percentile
and digest helpers, the suite's own span log, and process accounting.

Nothing here imports ``repro``; the callers that need the program put
``src/`` on ``sys.path`` themselves (see :func:`bootstrap`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SUITE = Path(__file__).resolve().parent
REPO = SUITE.parent.parent
SRC = REPO / "src"
WORK = SUITE / ".work"
RESULTS = SUITE / "results"

WORKLOADS = (
    "engine_fig9_warm",
    "engine_maintain",
    "serve_http_mix",
    "cluster_2shard_cold",
)

#: Query classes, in the order every report prints them.
CLASSES = ("sel", "join", "complex", "update")

# --------------------------------------------------------------------------
# Metric catalogue.  BENCHMARK.json is generated from these two tables
# (``run.py --write-manifest``) and test_suite.py checks they still agree.
#
# end-to-end: name -> (unit, better, bound).  A bound is the share of the
# parent's median a later change may lose before it counts as a regression.
# The issue caps a bound at 10 %.  setup_s is the exception: the builder's
# contract requires it among the bounded metrics, so it cannot be demoted,
# and its run-to-run spread on this box reaches 20 % (results/aa_seed.md).

END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "index_bytes_per_triple": ("B", "lower", 0.07),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: The issue's other end-to-end metrics.  Every timing is here: raw wall
#: clock on this box spreads 13-37 % over ten runs in a busy half hour
#: and 4-22 % in a quiet one (results/aa_seed.md), and the issue says to
#: demote a metric that cannot hold a bound of at most 10 %, not to widen
#: the bound.  They are still measured with tracing off and printed by
#: every run, and compare.py prints their ratios; BENCHMARK.json lists
#: them as diagnostics so no later change is rejected on their noise.
#: failed_ratio is 0 on a healthy commit, which a bounded metric may not
#: be; compare.py holds it to "no increase".  cpu_kernel_ms is the time of
#: a fixed kernel beside the window: the machine's state, not the
#: program's.
DEMOTED: dict[str, tuple[str, str]] = {
    "ops_per_s": ("1/s", "higher"),
    "sel_ms_p50": ("ms", "lower"),
    "sel_ms_p95": ("ms", "lower"),
    "join_ms_p50": ("ms", "lower"),
    "join_ms_p95": ("ms", "lower"),
    "complex_ms_p50": ("ms", "lower"),
    "complex_ms_p95": ("ms", "lower"),
    "update_ms_p50": ("ms", "lower"),
    "update_ms_p95": ("ms", "lower"),
    "failed_ratio": ("ratio", "lower"),
    "cpu_kernel_ms": ("ms", "lower"),
}

# per-layer: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "sparqlt.parse_us": ("us", "lower"),
    "engine.translate_us": ("us", "lower"),
    "engine.execute_sel_us": ("us", "lower"),
    "engine.execute_join_us": ("us", "lower"),
    "engine.execute_complex_us": ("us", "lower"),
    "engine.project_us": ("us", "lower"),
    "engine.unattributed_us": ("us", "lower"),
    "engine.plan_cache.hit_ratio": ("ratio", "higher"),
    "engine.sync_joins": ("count", "lower"),
    "engine.hash_joins": ("count", "lower"),
    "engine.update_unattributed_us": ("us", "lower"),
    "optimizer.choose_order_us": ("us", "lower"),
    "optimizer.rebuild_s": ("s", "lower"),
    "optimizer.qerror_median": ("ratio", "lower"),
    "mvsbt.histogram.build_s": ("s", "lower"),
    "mvsbt.histogram.bytes": ("B", "lower"),
    "mvsbt.histogram.point_query_us": ("us", "lower"),
    "mvbt.tree.bulk_load_s": ("s", "lower"),
    "mvbt.tree.insert_us": ("us", "lower"),
    "mvbt.tree.delete_us": ("us", "lower"),
    "mvbt.tree.version_splits_per_1k": ("count", "lower"),
    "mvbt.tree.key_splits_per_1k": ("count", "lower"),
    "mvbt.scan.query_leaves_us": ("us", "lower"),
    "mvbt.scan.leaf_us": ("us", "lower"),
    "mvbt.scan.leaves_per_scan": ("count", "lower"),
    "mvbt.scan.examined_per_emitted": ("ratio", "lower"),
    "mvbt.scan.first_touch_ratio": ("ratio", "lower"),
    "mvbt.compression.packed_scan_ratio": ("ratio", "higher"),
    "mvbt.compression.entries_decoded_per_query": ("count", "lower"),
    "mvbt.compression.memo_entries": ("count", "lower"),
    "mvbt.compression.bytes_per_entry": ("B", "lower"),
    "mvbt.compression.append_us": ("us", "lower"),
    "mvbt.compression.end_live_us": ("us", "lower"),
    "mvbt.compression.maintain_overhead_ratio": ("ratio", "lower"),
    "mvbt.join.sync_us": ("us", "lower"),
    "mvbt.join.hash_us": ("us", "lower"),
    "service.cache.hit_ratio": ("ratio", "higher"),
    "service.cache.invalidations": ("count", "lower"),
    "service.cache.lookup_us": ("us", "lower"),
    "service.store.query_overhead_us": ("us", "lower"),
    "service.store.update_us": ("us", "lower"),
    "service.store.stall_ms_max": ("ms", "lower"),
    "service.wal.append_us": ("us", "lower"),
    "service.wal.sync_ms": ("ms", "lower"),
    "service.wal.syncs_per_update": ("ratio", "lower"),
    "service.wal.bytes_per_update": ("B", "lower"),
    "service.snapshot.save_s": ("s", "lower"),
    "service.snapshot.load_s": ("s", "lower"),
    "service.snapshot.bytes_per_triple": ("B", "lower"),
    "service.store.recover_s": ("s", "lower"),
    "service.store.replayed_records": ("count", "lower"),
    "service.server.overhead_us": ("us", "lower"),
    "service.server.rejected": ("count", "lower"),
    "service.server.timeouts": ("count", "lower"),
    "cluster.protocol.query_codec_us": ("us", "lower"),
    "cluster.protocol.rows_codec_us": ("us", "lower"),
    "cluster.protocol.bytes_per_row": ("B", "lower"),
    "cluster.protocol.frame_us": ("us", "lower"),
    "cluster.coordinator.rpc_ms_p50": ("ms", "lower"),
    "cluster.coordinator.rpcs_per_query": ("ratio", "lower"),
    "cluster.coordinator.single_shard_ratio": ("ratio", "higher"),
    "cluster.executor.canonical_sort_us": ("us", "lower"),
    "cluster.overhead_ratio_sel": ("ratio", "lower"),
    "cluster.overhead_ratio_join": ("ratio", "lower"),
    "obs.overhead_ratio": ("ratio", "lower"),
    "obs.trace.unattributed_ratio": ("ratio", "lower"),
}


def per_layer_catalogue() -> dict[str, tuple[str, str]]:
    """Every diagnostic metric a traced run prints: the demoted
    end-to-end metrics first, then the layers."""
    return {**DEMOTED, **PER_LAYER}


# --------------------------------------------------------------------------
# Percentiles


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float], q: float = 0.95) -> float | None:
    """The ``q`` percentile (nearest rank) — or, when fewer than ten
    samples lie beyond it, the highest percentile that still has ten
    beyond it (choosing-metrics §1); None under twenty samples."""
    count = len(values)
    if count < 20:
        return None
    rank = min(int(count * q), count - 10)
    return sorted(values)[rank]


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median — the driver's
    steadiness test."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# --------------------------------------------------------------------------
# Answer digests.  One canonical form for in-process QueryResult rows
# (PeriodSet values), HTTP JSON rows and cluster rows.


def _encode(value):
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, list):  # already JSON (HTTP response rows)
        return value
    # PeriodSet: iterable of periods with .start/.end; NOW encodes as null
    # exactly as the HTTP layer and the cluster protocol do.
    from repro.model.time import NOW

    return [[p.start, None if p.end == NOW else p.end] for p in value]


def digest_rows(variables: list[str], rows: list[dict]) -> str:
    """SHA-256 over the canonically ordered, JSON-encoded rows."""
    lines = sorted(
        json.dumps([_encode(row.get(name)) for name in variables])
        for row in rows
    )
    sha = hashlib.sha256()
    sha.update(json.dumps(list(variables)).encode())
    for line in lines:
        sha.update(b"\n")
        sha.update(line.encode())
    return sha.hexdigest()


def rollup(digests: list[str]) -> str:
    """One digest over a workload's per-query digests, in op order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


# --------------------------------------------------------------------------
# The suite's own spans (choosing-metrics §4): recorded from outside the
# program, kept in memory, written out when the run ends.


class SpanLog:
    """``[name, start_ns, end_ns, parent, op_id]`` records with nesting."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op_id=None):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), 0, parent, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, op_id=None) -> None:
        """Record a span timed by the caller (client-side op latencies)."""
        self.spans.append([name, start_ns, end_ns, None, op_id])

    def self_times_us(self) -> dict[str, list[float]]:
        """Span name -> self times: duration minus what children cover."""
        covered = [0] * len(self.spans)
        for record in self.spans:
            if record[3] is not None:
                covered[record[3]] += record[2] - record[1]
        out: dict[str, list[float]] = {}
        for index, record in enumerate(self.spans):
            out.setdefault(record[0], []).append(
                (record[2] - record[1] - covered[index]) / 1000.0
            )
        return out

    def durations_us(self, name: str) -> list[float]:
        return [span_us(r) for r in self.spans if r[0] == name]

    def to_json(self) -> list[dict]:
        return [
            {"name": r[0], "start_ns": r[1], "end_ns": r[2],
             "parent": r[3], "op_id": r[4]}
            for r in self.spans
        ]


def span_us(span: list) -> float:
    """A finished span's duration in microseconds."""
    return (span[2] - span[1]) / 1000.0


# --------------------------------------------------------------------------
# CPU speed, as a diagnostic.  This sandbox's vCPUs move between speed
# states about 30 % apart, for seconds to minutes at a time (neighbours on
# the host; a fixed kernel read 0.54 ms and 0.70 ms within one minute).
# Every reported time is the raw wall clock; ``cpu_kernel_ms`` is printed
# beside them so a reader can tell whether two runs saw the same machine.


def _kernel() -> int:
    """Arithmetic plus allocation/sort/dict work; uses no program code, so
    no change to the program can move it."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    rows = [{"a": i, "b": (i * 7) % 101, "c": str(i)} for i in range(800)]
    rows.sort(key=lambda row: row["b"])
    kept = [(row["a"], row["c"]) for row in rows if row["b"] % 3]
    return total + len(kept)


def cpu_kernel_ms(samples: int = 5) -> list[float]:
    """Wall time of the fixed kernel, ``samples`` times over.  Collection
    is off meanwhile: the kernel allocates, and a collection it set off
    would cost in proportion to the program's heap."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(samples):
            started = time.perf_counter()
            _kernel()
            out.append((time.perf_counter() - started) * 1000.0)
        return out
    finally:
        if collecting:
            gc.enable()


# --------------------------------------------------------------------------
# Process accounting


def peak_rss_kb(pid: int | str = "self") -> int:
    """``VmHWM`` of a process in kB (0 when it is gone or off Linux)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return 0
    return 0


def environment(seed: int, triples: int, seconds: float) -> dict:
    """The block every report carries (ROADMAP aim 1)."""
    commit = "unknown"
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            commit = (REPO / ".git" / ref[5:]).read_text().strip()[:12]
        else:
            commit = ref[:12]
    except OSError:
        pass  # the driver's checkout is not a git repository
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "commit": commit,
        "seed": seed,
        "triples": triples,
        "seconds": seconds,
        "repro_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def bootstrap() -> None:
    """Put the program's sources on ``sys.path``; refuse to run without
    them (a directory holding only the benchmark has nothing to measure)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"benchmark suite: no program to measure ({SRC}/repro missing)\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
