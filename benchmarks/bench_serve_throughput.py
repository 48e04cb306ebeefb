"""Serving-layer throughput: store-level and HTTP-level, reads and writes.

Measures four configurations of the durable serving layer
(``repro.service``) over a synthetic Wikipedia-style dataset:

* **store reads** — concurrent reader threads against
  :class:`~repro.service.store.TemporalStore` (no HTTP),
* **store writes** — the single-writer update path, with and without
  per-update fsync, showing what group commit buys,
* **http reads / http writes** — the same through the
  :class:`~repro.service.server.TemporalService` endpoint, measuring the
  full JSON + admission-control + socket stack,
* **cached mix** — a single-threaded repeated-query mix (70% of requests
  round-robin over a small hot set, 30% distinct cold queries) run twice,
  with the revision-tagged result cache on and off; the summary line
  reports median per-request latency and the speedup.
* **observability overhead** — per-request HTTP latency for a read mix
  and a write mix, once with full tracing (sample rate 1.0) and once
  with the ``REPRO_OBS`` kill switch engaged; median/p95/p99 land in the
  machine-readable ``bench_results/BENCH_obs.json``.
* **cluster scaling** — concurrent read throughput against
  :class:`~repro.cluster.ClusterStore` at 1, 2 and 4 shards versus the
  single-process store, result caches disabled on both sides so the
  numbers measure scan parallelism rather than cache hits; lands in
  ``bench_results/BENCH_cluster.json``.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py

Writes an aligned table to ``bench_results/serve_throughput.txt`` via the
shared bench harness.  ``REPRO_SCALE`` scales the dataset and operation
counts down for smoke runs.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import sys
import tempfile
import threading
import time

# Allow running from the repo root without an installed package.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.harness import (  # noqa: E402
    RESULTS_DIR,
    format_table,
    report,
    scaled,
)
from repro.datasets import wikipedia  # noqa: E402
from repro.datasets.queries import selection_queries  # noqa: E402
from repro.model.time import NOW  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.service import TemporalStore, serve  # noqa: E402

TRIPLES = scaled(int(os.environ.get("SERVE_BENCH_TRIPLES", "20000")))
READS = scaled(int(os.environ.get("SERVE_BENCH_READS", "2000")))
WRITES = scaled(int(os.environ.get("SERVE_BENCH_WRITES", "2000")))
READERS = int(os.environ.get("SERVE_BENCH_READERS", "4"))
MIX_REQUESTS = scaled(int(os.environ.get("SERVE_BENCH_MIX", "600")))
OBS_REQUESTS = scaled(int(os.environ.get("SERVE_BENCH_OBS", "400")))
CLUSTER_READS = scaled(int(os.environ.get("SERVE_BENCH_CLUSTER", "800")))
CLUSTER_READERS = int(os.environ.get("SERVE_BENCH_CLUSTER_READERS", "8"))
CLUSTER_SHARD_COUNTS = (1, 2, 4)
HOT_PER_TEN = 7  # 70% of mix requests repeat the hot query set


def _build_store(directory, **kwargs):
    graph = wikipedia.generate(TRIPLES, seed=7).graph
    store = TemporalStore(directory, **kwargs)
    store.load_dataset(graph)
    queries = selection_queries(graph, count=8)
    return store, queries


def _update_stream(store, n):
    base = store.engine.horizon + 1
    # Clamp far away from NOW so long streams stay valid.
    assert base + 2 * n < NOW
    for i in range(n):
        yield ("bench_subject_%d" % i, "bench_member", "Org", base + 2 * i)


def bench_store_reads(store, queries) -> tuple[float, int]:
    """READS queries spread over READERS threads; returns (secs, ops)."""
    per_thread = READS // READERS
    barrier = threading.Barrier(READERS + 1)
    done = threading.Barrier(READERS + 1)

    def reader(offset):
        barrier.wait()
        for i in range(per_thread):
            store.query(queries[(offset + i) % len(queries)])
        done.wait()

    threads = [
        threading.Thread(target=reader, args=(k,)) for k in range(READERS)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    done.wait()
    elapsed = time.perf_counter() - start
    for t in threads:
        t.join()
    return elapsed, per_thread * READERS


def _mixed_requests(graph, hot_queries) -> list[str]:
    """MIX_REQUESTS queries: HOT_PER_TEN of every 10 round-robin over the
    hot set, the rest drawn from a pool of distinct cold queries (each a
    guaranteed cache miss)."""
    from repro.service.cache import normalize_query

    cold_needed = sum(
        1 for i in range(MIX_REQUESTS) if i % 10 >= HOT_PER_TEN
    )
    seen = {normalize_query(q) for q in hot_queries}
    cold: list[str] = []
    seed = 101
    while len(cold) < cold_needed:
        for q in selection_queries(graph, count=50, seed=seed):
            key = normalize_query(q)
            if key not in seen:
                seen.add(key)
                cold.append(q)
        seed += 1
    cold_iter = iter(cold)
    return [
        hot_queries[i % len(hot_queries)]
        if i % 10 < HOT_PER_TEN
        else next(cold_iter)
        for i in range(MIX_REQUESTS)
    ]


def bench_cached_mix(store, requests) -> tuple[float, int, float]:
    """Single-threaded latency run; returns (secs, ops, median secs)."""
    latencies = []
    for text in requests:
        start = time.perf_counter()
        store.query(text)
        latencies.append(time.perf_counter() - start)
    return sum(latencies), len(latencies), statistics.median(latencies)


def bench_store_writes(store) -> tuple[float, int]:
    start = time.perf_counter()
    for s, p, o, t in _update_stream(store, WRITES):
        store.insert(s, p, o, t)
    store.sync()
    return time.perf_counter() - start, WRITES


def bench_http_reads(service, queries) -> tuple[float, int]:
    per_thread = READS // READERS
    barrier = threading.Barrier(READERS + 1)
    done = threading.Barrier(READERS + 1)

    def reader(offset):
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=60)
        barrier.wait()
        for i in range(per_thread):
            body = json.dumps(
                {"query": queries[(offset + i) % len(queries)]}
            )
            conn.request("POST", "/query", body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status == 200, response.status
        conn.close()
        done.wait()

    threads = [
        threading.Thread(target=reader, args=(k,)) for k in range(READERS)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    done.wait()
    elapsed = time.perf_counter() - start
    for t in threads:
        t.join()
    return elapsed, per_thread * READERS


def bench_http_writes(service, store) -> tuple[float, int]:
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=60)
    updates = [
        {"op": "insert", "subject": s, "predicate": p, "object": o,
         "time": t}
        for s, p, o, t in _update_stream(store, WRITES)
    ]
    start = time.perf_counter()
    for update in updates:
        conn.request("POST", "/update", json.dumps(update),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        assert response.status == 200, response.status
    conn.close()
    return time.perf_counter() - start, WRITES


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _latency_summary(latencies_ms: list[float]) -> dict:
    ordered = sorted(latencies_ms)
    return {
        "requests": len(ordered),
        "median_ms": round(_percentile(ordered, 0.5), 4),
        "p95_ms": round(_percentile(ordered, 0.95), 4),
        "p99_ms": round(_percentile(ordered, 0.99), 4),
    }


def _timed_http_requests(service, payloads) -> list[float]:
    """Single-connection POSTs; returns per-request latency in ms."""
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=60)
    latencies = []
    for path, payload in payloads:
        body = json.dumps(payload)
        start = time.perf_counter()
        conn.request("POST", path, body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        latencies.append((time.perf_counter() - start) * 1000.0)
        assert response.status == 200, response.status
    conn.close()
    return latencies


def bench_obs_latency() -> dict:
    """Per-request latency with tracing on vs the kill switch engaged.

    Each mode gets its own fresh store + in-process server so the two
    runs see identical state; ``set_enabled`` toggles the same switch the
    ``REPRO_OBS`` environment variable controls.
    """
    was_enabled = obs_metrics.ENABLED
    modes = {}
    try:
        for mode, enabled in (("tracing_on", True), ("tracing_off", False)):
            obs_metrics.set_enabled(enabled)
            per_mix = {}
            with tempfile.TemporaryDirectory() as tmp:
                store, queries = _build_store(os.path.join(tmp, "obs"),
                                              group_size=64)
                with store:
                    service = serve(store, port=0, max_inflight=4,
                                    request_timeout=120.0, trace_sample=1.0)
                    thread = threading.Thread(
                        target=service.serve_forever, daemon=True
                    )
                    thread.start()
                    try:
                        reads = [
                            ("/query", {"query": queries[i % len(queries)]})
                            for i in range(OBS_REQUESTS)
                        ]
                        per_mix["http_reads"] = _latency_summary(
                            _timed_http_requests(service, reads)
                        )
                        writes = [
                            ("/update", {"op": "insert", "subject": s,
                                         "predicate": p, "object": o,
                                         "time": t})
                            for s, p, o, t in _update_stream(
                                store, OBS_REQUESTS
                            )
                        ]
                        per_mix["http_writes"] = _latency_summary(
                            _timed_http_requests(service, writes)
                        )
                    finally:
                        service.shutdown()
                        thread.join(timeout=30)
            modes[mode] = per_mix
    finally:
        obs_metrics.set_enabled(was_enabled)

    payload = {
        "triples": TRIPLES,
        "requests_per_mix": OBS_REQUESTS,
        "mixes": {},
    }
    for mix in ("http_reads", "http_writes"):
        on = modes["tracing_on"][mix]
        off = modes["tracing_off"][mix]
        ratio = (on["median_ms"] / off["median_ms"]
                 if off["median_ms"] else float("inf"))
        payload["mixes"][mix] = {
            "tracing_on": on,
            "tracing_off": off,
            "overhead_ratio_median": round(ratio, 4),
        }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_obs.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    return payload


def _concurrent_reads(store, queries, reads, readers) -> tuple[float, int]:
    """``reads`` queries over ``readers`` threads against any store."""
    per_thread = reads // readers
    barrier = threading.Barrier(readers + 1)
    done = threading.Barrier(readers + 1)

    def reader(offset):
        barrier.wait()
        for i in range(per_thread):
            store.query(queries[(offset + i) % len(queries)])
        done.wait()

    threads = [
        threading.Thread(target=reader, args=(k,)) for k in range(readers)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    done.wait()
    elapsed = time.perf_counter() - start
    for t in threads:
        t.join()
    return elapsed, per_thread * readers


def bench_cluster_scaling() -> tuple[dict, list]:
    """Read throughput: single-process baseline vs 1/2/4-shard clusters.

    Result caches are off on every side — a cache-hit bench would only
    measure the coordinator's socket hop.  The single process serializes
    query evaluation on the GIL, so shard processes are where the added
    throughput comes from.
    """
    from repro.cluster import ClusterStore

    graph = wikipedia.generate(TRIPLES, seed=7).graph
    # Unbound-subject selections: subject stars that every shard
    # answers whole (one RPC per shard, rows unioned), the shape
    # sharding is supposed to speed up.
    queries = [
        q for q in selection_queries(graph, count=16) if "{?s " in q
    ] or selection_queries(graph, count=8)
    rows = []
    payload = {
        "triples": TRIPLES,
        "reads": CLUSTER_READS,
        "readers": CLUSTER_READERS,
        # Shard scaling is process parallelism: with fewer cores than
        # shards the workers time-slice one CPU and the coordinator hop
        # is pure overhead.  Recorded so results are interpretable.
        "cpus": os.cpu_count(),
        "topologies": {},
    }

    with tempfile.TemporaryDirectory() as tmp:
        store = TemporalStore(os.path.join(tmp, "base"),
                              query_cache_size=None)
        with store:
            store.load_dataset(graph)
            elapsed, ops = _concurrent_reads(
                store, queries, CLUSTER_READS, CLUSTER_READERS
            )
        baseline = ops / elapsed if elapsed else float("inf")
        payload["topologies"]["single_process"] = {
            "ops": ops, "seconds": round(elapsed, 4),
            "ops_per_sec": round(baseline, 2),
        }
        rows.append(("cluster baseline (1 process)", ops, elapsed))

    for shards in CLUSTER_SHARD_COUNTS:
        with tempfile.TemporaryDirectory() as tmp:
            with ClusterStore(os.path.join(tmp, "clu"), shards=shards,
                              fsync=False,
                              query_cache_size=None) as cluster:
                cluster.load_dataset(graph)
                elapsed, ops = _concurrent_reads(
                    cluster, queries, CLUSTER_READS, CLUSTER_READERS
                )
        rate = ops / elapsed if elapsed else float("inf")
        payload["topologies"]["shards_%d" % shards] = {
            "ops": ops, "seconds": round(elapsed, 4),
            "ops_per_sec": round(rate, 2),
            "speedup_vs_single_process": round(
                rate / baseline if baseline else float("inf"), 3
            ),
        }
        rows.append(("cluster reads (%d shards)" % shards, ops, elapsed))

    payload["speedup_4_shards"] = payload["topologies"].get(
        "shards_4", {}
    ).get("speedup_vs_single_process")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_cluster.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    return payload, rows


def main() -> int:
    rows = []

    with tempfile.TemporaryDirectory() as tmp:
        store, queries = _build_store(
            os.path.join(tmp, "reads"), group_size=64
        )
        with store:
            elapsed, ops = bench_store_reads(store, queries)
            rows.append(("store reads (%d threads)" % READERS, ops, elapsed))

    medians = {}
    for label, kwargs in (
        ("cached mix (70% repeat, cache on)", {}),
        ("cached mix (70% repeat, cache off)", {"query_cache_size": 0}),
    ):
        with tempfile.TemporaryDirectory() as tmp:
            store, queries = _build_store(
                os.path.join(tmp, "mix"), group_size=64, **kwargs
            )
            with store:
                requests = _mixed_requests(
                    wikipedia.generate(TRIPLES, seed=7).graph, queries
                )
                elapsed, ops, median = bench_cached_mix(store, requests)
                medians[label] = median
                rows.append((label, ops, elapsed))

    for label, kwargs in (
        ("store writes (group=64)", {"group_size": 64}),
        ("store writes (fsync each)", {"group_size": 1}),
        ("store writes (no fsync)", {"group_size": 1, "fsync": False}),
    ):
        with tempfile.TemporaryDirectory() as tmp:
            store, _ = _build_store(os.path.join(tmp, "writes"), **kwargs)
            with store:
                elapsed, ops = bench_store_writes(store)
                rows.append((label, ops, elapsed))

    with tempfile.TemporaryDirectory() as tmp:
        store, queries = _build_store(os.path.join(tmp, "http"),
                                      group_size=64)
        with store:
            service = serve(store, port=0, max_inflight=READERS + 2,
                            request_timeout=120.0)
            thread = threading.Thread(target=service.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                elapsed, ops = bench_http_reads(service, queries)
                rows.append(
                    ("http reads (%d conns)" % READERS, ops, elapsed)
                )
                elapsed, ops = bench_http_writes(service, store)
                rows.append(("http writes (1 conn)", ops, elapsed))
            finally:
                service.shutdown()
                thread.join(timeout=30)

    table = format_table(
        "Serving-layer throughput (%d triples loaded)" % TRIPLES,
        ["configuration", "ops", "seconds", "ops/sec"],
        [
            (label, ops, "%.3f" % elapsed,
             "%.0f" % (ops / elapsed if elapsed else float("inf")))
            for label, ops, elapsed in rows
        ],
    )
    on = medians["cached mix (70% repeat, cache on)"]
    off = medians["cached mix (70% repeat, cache off)"]
    summary = (
        "cached-mix median latency: on=%.6fs  off=%.6fs  speedup=%.1fx"
        % (on, off, off / on if on else float("inf"))
    )

    cluster_payload, cluster_rows = bench_cluster_scaling()
    rows.extend(cluster_rows)

    obs = bench_obs_latency()
    obs_lines = []
    for mix, data in obs["mixes"].items():
        obs_lines.append(
            "obs overhead %s: tracing on median=%.3fms  off median=%.3fms"
            "  ratio=%.2fx (p95 on/off=%.3f/%.3fms)" % (
                mix, data["tracing_on"]["median_ms"],
                data["tracing_off"]["median_ms"],
                data["overhead_ratio_median"],
                data["tracing_on"]["p95_ms"],
                data["tracing_off"]["p95_ms"],
            )
        )
    cluster_line = (
        "cluster scaling: 4-shard speedup vs single process = %sx"
        % cluster_payload.get("speedup_4_shards")
    )
    report("serve_throughput",
           table + "\n" + summary + "\n" + cluster_line + "\n"
           + "\n".join(obs_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
