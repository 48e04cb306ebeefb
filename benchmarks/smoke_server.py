"""CI smoke: the serve lifecycle end to end, including crash recovery.

Drives the real ``repro-tx serve`` process over HTTP:

1. generate a dataset and start a server with ``--data``,
2. run queries and durable updates against it, including a repeated-query
   mix that must show nonzero ``service.cache.hits`` in ``/metrics``;
   query responses must carry a trace id that ``/debug/traces`` can
   resolve to the request's span tree; after the mix, ``/debug/workload``
   must list per-shape aggregates (count, p95, cache-hit ratio, exemplar
   trace id) and ``/debug/storage`` a structural health report,
3. checkpoint, apply more updates, then SIGKILL the process (no clean
   shutdown),
4. restart the server on the same directory and
   verify every acknowledged update survived — both the checkpointed ones
   and the WAL-only tail; ``/debug/profile`` must return non-empty
   collapsed stacks while a query loop runs,
5. restart once more with ``REPRO_OBS=0``: tracing must vanish from
   responses, the workload registry must stay empty, the profiler must
   refuse (503), and the obs-on median latency must stay within
   ``SMOKE_OBS_RATIO`` (default 1.5×) of the kill-switch run.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/smoke_server.py

Exits nonzero on any mismatch.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(REPO, "src"))

PORT = int(os.environ.get("SMOKE_SERVER_PORT", "8199"))
TRIPLES = int(os.environ.get("SMOKE_SERVER_TRIPLES", "2000"))
# Lenient by default: CI machines are noisy and the latencies are small.
OBS_RATIO = float(os.environ.get("SMOKE_OBS_RATIO", "1.5"))
OBS_SAMPLES = int(os.environ.get("SMOKE_OBS_SAMPLES", "60"))


def request(method, path, payload=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", PORT, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body,
                     {"Content-Type": "application/json"} if body else {})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def request_text(method, path, timeout=60):
    """Like :func:`request`, but returning the raw body undecoded —
    for text endpoints such as ``/debug/profile``."""
    conn = http.client.HTTPConnection("127.0.0.1", PORT, timeout=timeout)
    try:
        conn.request(method, path, None, {})
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def wait_healthy(deadline=30.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        try:
            status, body = request("GET", "/healthz", timeout=2)
            if status == 200:
                return body
        except OSError:
            pass
        time.sleep(0.2)
    raise SystemExit("server did not become healthy in time")


def start_server(directory, data=None, env_extra=None):
    argv = [
        sys.executable, "-m", "repro.cli", "serve", directory,
        "--port", str(PORT), "--group-commit", "8",
    ]
    if data:
        argv += ["--data", data]
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src"),
           **(env_extra or {})}
    return subprocess.Popen(argv, env=env)


def stop_server(server):
    server.send_signal(signal.SIGINT)
    try:
        server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait(timeout=30)


def median_latency(query, samples=OBS_SAMPLES):
    latencies = []
    for _ in range(samples):
        start = time.perf_counter()
        status, _ = request("POST", "/query", {"query": query})
        if status != 200:
            raise SystemExit(f"latency probe got HTTP {status}")
        latencies.append(time.perf_counter() - start)
    latencies.sort()
    return latencies[len(latencies) // 2]


def check(name, condition, detail=""):
    if not condition:
        raise SystemExit(f"FAIL {name}: {detail}")
    print(f"ok {name}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        dataset = os.path.join(tmp, "data.tnq")
        storedir = os.path.join(tmp, "store")
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "generate", "wikipedia",
             str(TRIPLES), dataset],
            env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
            check=True,
        )

        server = start_server(storedir, data=dataset)
        try:
            health = wait_healthy()
            check("bootstrap", health["live_facts"] > 0, health)

            status, result = request("POST", "/query", {
                "query": "SELECT ?s ?o {?s population ?o ?t}",
            })
            check("query", status == 200 and "rows" in result,
                  (status, result))
            trace_id = result.get("trace_id")
            check("query trace id", bool(trace_id), result)

            status, detail = request("GET", f"/debug/traces?id={trace_id}")
            check("debug trace resolves",
                  status == 200 and detail["trace_id"] == trace_id,
                  (status, detail))

            def span_names(node, out):
                out.append(node["name"])
                for child in node["children"]:
                    span_names(child, out)
                return out

            names = span_names(detail["root"], [])
            check("trace has store.query span", "store.query" in names,
                  names)

            status, body = request("POST", "/update", {
                "op": "insert", "subject": "SmokeCity",
                "predicate": "population", "object": "12345",
                "time": "2030-01-01",
            })
            check("update", status == 200 and body["applied"] == 1,
                  (status, body))
            pre_checkpoint_revision = body["revision"]

            status, body = request("POST", "/checkpoint")
            check("checkpoint",
                  status == 200
                  and body["revision"] == pre_checkpoint_revision,
                  (status, body))

            # WAL-only tail: updates after the checkpoint.
            for i in range(20):
                status, body = request("POST", "/update", {
                    "op": "insert", "subject": f"SmokeCity_{i}",
                    "predicate": "population", "object": str(i),
                    "time": "2030-01-02",
                })
                check(f"tail update {i}", status == 200, (status, body))
            final_revision = body["revision"]

            status, body = request("GET", "/metrics")
            check("metrics", status == 200 and "counters" in body, status)

            # Cached read path: repeating one query must serve from the
            # revision-tagged result cache after the first execution.
            for i in range(6):
                status, _ = request("POST", "/query", {
                    "query": "SELECT ?s ?o {?s population ?o ?t}",
                })
                check(f"cached mix query {i}", status == 200, status)
            status, body = request("GET", "/metrics")
            hits = body["counters"].get("service.cache.hits", 0)
            check("cache hits nonzero", hits > 0,
                  {k: v for k, v in body["counters"].items()
                   if k.startswith("service.")})

            # Workload intelligence: the mix above must have aggregated
            # into per-shape stats with a resolvable exemplar trace.
            status, workload = request("GET", "/debug/workload")
            check("workload populated",
                  status == 200 and workload["enabled"]
                  and workload["shapes"], workload)
            busiest = workload["shapes"][0]
            check("workload shape aggregates",
                  busiest["count"] > 1 and busiest["p95_ms"] >= 0
                  and 0.0 < busiest["cache_hit_ratio"] <= 1.0, busiest)
            check("workload exemplar trace id",
                  bool(busiest["exemplar_trace_id"]), busiest)

            status, storage = request("GET", "/debug/storage")
            check("storage report",
                  status == 200
                  and set(storage["indexes"])
                  == {"spo", "sop", "pos", "ops"}
                  and storage["store"]["wal"]["next_lsn"] > 1, status)

            os.kill(server.pid, signal.SIGKILL)  # crash, no shutdown
            server.wait(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)

        # Restart on the same directory: recovery answers must be
        # identical to the pre-crash ones.
        server = start_server(storedir)
        try:
            health = wait_healthy()
            check("recovered revision",
                  health["revision"] == final_revision,
                  (health["revision"], final_revision))

            status, result = request("POST", "/query", {
                "query": "SELECT ?o {SmokeCity population ?o ?t}",
            })
            check("checkpointed update survived",
                  [r["o"] for r in result["rows"]] == ["12345"], result)

            status, result = request("POST", "/query", {
                "query": "SELECT ?s {?s population ?o ?t "
                         ". FILTER(YEAR(?t) = 2030)}",
            })
            survivors = {row["s"] for row in result["rows"]}
            expected = {"SmokeCity"} | {f"SmokeCity_{i}" for i in range(20)}
            check("WAL tail survived", survivors >= expected,
                  expected - survivors)

            status, body = request("POST", "/update", {
                "op": "delete", "subject": "SmokeCity",
                "predicate": "population", "object": "12345",
                "time": "2031-01-01",
            })
            check("post-recovery update",
                  status == 200 and body["revision"] == final_revision + 1,
                  (status, body))

            # Sampling profiler: profile one second while a query loop
            # keeps the worker threads busy — stacks must come back.
            stop_load = threading.Event()

            def query_load():
                while not stop_load.is_set():
                    request("POST", "/query", {
                        "query": "SELECT ?s ?o {?s population ?o ?t}",
                    })

            load_thread = threading.Thread(target=query_load, daemon=True)
            load_thread.start()
            try:
                status, collapsed = request_text(
                    "GET", "/debug/profile?seconds=1"
                )
            finally:
                stop_load.set()
                load_thread.join(timeout=30)
            check("profiler returns collapsed stacks",
                  status == 200 and collapsed.strip(),
                  (status, collapsed[:200]))
            heaviest = collapsed.splitlines()[0]
            check("collapsed stack format",
                  heaviest.rsplit(" ", 1)[1].isdigit(), heaviest)

            # Obs-on latency baseline: a cached repeated query, measured
            # on this (tracing-enabled) server before it shuts down.
            latency_query = "SELECT ?o {SmokeCity_1 population ?o ?t}"
            on_median = median_latency(latency_query)
        finally:
            stop_server(server)

        # Kill-switch run: REPRO_OBS=0 must hide trace ids and strip the
        # instrumentation down to noise-level overhead.
        server = start_server(storedir, env_extra={"REPRO_OBS": "0"})
        try:
            wait_healthy()
            status, result = request("POST", "/query",
                                     {"query": latency_query})
            check("kill switch hides trace id",
                  status == 200 and "trace_id" not in result, result)
            status, listing = request("GET", "/debug/traces")
            check("kill switch keeps trace buffer empty",
                  status == 200 and listing["traces"] == [], listing)
            status, workload = request("GET", "/debug/workload")
            check("kill switch keeps workload empty",
                  status == 200 and not workload["enabled"]
                  and workload["shapes"] == [], workload)
            status, _ = request_text("GET", "/debug/profile?seconds=0.1")
            check("kill switch refuses profiling", status == 503, status)
            off_median = median_latency(latency_query)
        finally:
            stop_server(server)

        ratio = on_median / off_median if off_median else float("inf")
        check("obs overhead within ratio", ratio <= OBS_RATIO,
              f"on={on_median:.6f}s off={off_median:.6f}s "
              f"ratio={ratio:.2f} limit={OBS_RATIO}")

    print("OK: serve lifecycle + crash recovery + obs kill switch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
