"""CI smoke: the sharded cluster end to end, including a crash and restart.

Drives the real ``repro-tx serve --shards 2`` process over HTTP:

1. generate a dataset, start a 2-shard cluster with ``--data``, and wait
   for ``/healthz`` to report role ``coordinator`` with both shard
   workers alive,
2. apply durable updates (routed to both shards),
3. run one traced query asked of both shards and assert
   ``/debug/traces?id=`` returns a single stitched span tree with worker
   spans from at least two distinct processes (shard_id/role/pid
   annotated, clock skew estimated), then scrape
   ``/metrics?scope=cluster`` and assert nonzero per-shard request
   counters,
4. run a fig9-style query mix (selection + join + complex shapes) and
   record the exact response bytes per query,
5. SIGKILL the serve process (no clean shutdown) and require both worker
   processes to exit on their own: EOF on their stdin lifeline,
6. restart ``serve --shards 2`` over the same directory, and assert that
   every acknowledged write is back and that every query of the mix
   answers byte-identically to the pre-kill run,
7. SIGKILL one worker of the restarted cluster and require ``/healthz``
   to answer 503 with that shard ``alive: false``, and ``repro-tx
   cluster-status`` to print it ``DOWN`` and exit 1.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/smoke_cluster.py

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
import time

REPO = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(REPO, "src"))

PORT = int(os.environ.get("SMOKE_CLUSTER_PORT", "8297"))
TRIPLES = int(os.environ.get("SMOKE_CLUSTER_TRIPLES", "1500"))
UPDATES = 6


def request(method, path, payload=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", PORT, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body,
                     {"Content-Type": "application/json"} if body else {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def request_json(method, path, payload=None, timeout=60):
    status, raw = request(method, path, payload, timeout)
    return status, json.loads(raw)


def wait_healthy(deadline=60.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        try:
            status, body = request_json("GET", "/healthz", timeout=2)
            if status == 200:
                return body
        except OSError:
            pass
        time.sleep(0.3)
    raise SystemExit("cluster did not become healthy in time")


def running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def query_bytes(mix):
    """The exact response body per query — the byte-identity fixture.

    Responses carry a per-request trace id and the revision watermark,
    both of which legitimately differ between runs; the identity
    contract is on the bindings themselves, so compare only variables +
    rows.
    """
    out = []
    for text in mix:
        status, raw = request("POST", "/query", {"query": text})
        if status != 200:
            raise SystemExit(f"query failed with HTTP {status}: {text}")
        body = json.loads(raw)
        out.append(json.dumps(
            {"variables": body["variables"], "rows": body["rows"]},
            sort_keys=True,
        ))
    return out


def start_server(store, data=None):
    argv = [
        sys.executable, "-m", "repro.cli", "serve", store,
        "--shards", "2", "--no-fsync",
        "--port", str(PORT), "--query-cache", "0",
    ]
    if data is not None:
        argv += ["--data", data]
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
    server = subprocess.Popen(argv, env=env)
    body = wait_healthy()
    assert body["role"] == "coordinator", body["role"]
    cluster = body["cluster"]
    assert cluster["shards"] == 2
    assert all(m["primary"]["alive"] for m in cluster["members"])
    return server, body


def stop_server(server):
    server.send_signal(signal.SIGINT)
    try:
        server.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait(timeout=30)


def check_traced_scatter(server):
    """A traced query asked of both shards (a subject star) must come
    back as ONE stitched span tree holding worker spans from >= 2
    processes."""
    status, reply = request_json("POST", "/query", {
        "query": "SELECT ?s ?p ?o {?s ?p ?o ?t}",
    })
    assert status == 200, status
    trace_id = reply.get("trace_id")
    assert trace_id, "sampled POST should return a trace_id"
    status, detail = request_json("GET", f"/debug/traces?id={trace_id}")
    assert status == 200, (status, detail)

    def walk(node, out):
        out.append(node)
        for child in node.get("children", []):
            walk(child, out)
        return out

    spans = walk(detail["root"], [])
    worker_pids = {
        span["attrs"]["pid"] for span in spans
        if "pid" in span["attrs"] and "role" in span["attrs"]
        and "shard_id" in span["attrs"]
    }
    assert len(worker_pids) >= 2, (worker_pids, spans)
    assert server.pid not in worker_pids
    skews = [
        span["attrs"]["clock_skew_ms"] for span in spans
        if "clock_skew_ms" in span["attrs"]
    ]
    assert skews, "per-hop clock-skew annotations expected"
    print(f"stitched trace {trace_id}: worker spans from "
          f"{sorted(worker_pids)}")


def check_federated_metrics():
    """Per-shard request counters, in the JSON and the Prometheus
    rendering of ``/metrics?scope=cluster``."""
    status, federated = request_json("GET", "/metrics?scope=cluster&force=1")
    assert status == 200, status
    shard_groups = [
        g for g in federated["groups"] if g["labels"].get("role") == "shard"
    ]
    assert len(shard_groups) == 2, federated["groups"]
    for group in shard_groups:
        count = group["metrics"]["counters"].get(
            "cluster.worker.requests", 0)
        assert count > 0, group
    assert [m["role"] for m in federated["members"]] == [
        "coordinator", "shard", "shard"], federated["members"]
    status, raw = request("GET", "/metrics?scope=cluster&format=prometheus")
    text = raw.decode("utf-8")
    assert ('repro_cluster_worker_requests_total'
            '{shard="0",role="shard"}') in text, text[:500]
    assert "repro_cluster_member_up{" in text
    print("federated metrics scrape ok "
          f"({len(federated['members'])} members)")


def check_dead_worker(body):
    """SIGKILL shard 1's worker: ``/healthz`` answers 503 with the
    topology, that member ``alive: false``, and ``cluster-status`` prints
    it ``DOWN`` and exits 1."""
    dead = body["cluster"]["members"][1]["primary"]["pid"]
    os.kill(dead, signal.SIGKILL)
    deadline = time.monotonic() + 15.0
    while running(dead) and time.monotonic() < deadline:
        time.sleep(0.1)
    status, health = request_json("GET", "/healthz")
    assert status == 503, (status, health)
    alive = [m["primary"]["alive"] for m in health["cluster"]["members"]]
    assert alive == [True, False], health["cluster"]
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "cluster-status",
         f"http://127.0.0.1:{PORT}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1, (result.returncode, result.stdout,
                                    result.stderr)
    assert f"shard 1: pid {dead} DOWN" in result.stdout, result.stdout
    print(f"killed worker {dead}: /healthz 503, cluster-status DOWN")


def main() -> int:
    from repro.cluster.planner import shard_of
    from repro.datasets import wikipedia
    from repro.datasets.queries import (
        complex_queries,
        join_queries,
        selection_queries,
    )
    from repro.io import dump_graph

    graph = wikipedia.generate(TRIPLES, seed=11).graph
    by_count = complex_queries(graph, seed=3)
    mix = (selection_queries(graph, 4, seed=1)
           + join_queries(graph, 3, seed=2) + by_count[3][:2])
    listing = "SELECT ?s {?s smokes yes ?t}"

    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.tnq")
        store = os.path.join(tmp, "store")
        dump_graph(graph, data)
        server, body = start_server(store, data)
        try:
            print(f"cluster up: {body['cluster']['shards']} shards, "
                  f"{body['live_facts']} live facts")
            worker_pids = [m["primary"]["pid"]
                           for m in body["cluster"]["members"]]

            # durable updates routed to both shards
            acked = []
            for index in range(UPDATES):
                subject = f"smoke{index}"
                status, reply = request_json("POST", "/update", {
                    "op": "insert", "subject": subject,
                    "predicate": "smokes", "object": "yes",
                    "time": 25_000 + index,
                })
                assert status == 200, (status, reply)
                acked.append(subject)
            owners = {shard_of(subject, 2) for subject in acked}
            assert owners == {0, 1}, owners

            check_traced_scatter(server)
            check_federated_metrics()

            before = query_bytes([*mix, listing])
            print(f"query mix recorded: {len(before)} responses")

            os.kill(server.pid, signal.SIGKILL)
            server.wait(timeout=30)
            print(f"killed serve (pid {server.pid})")
            deadline = time.monotonic() + 15.0
            while (any(map(running, worker_pids))
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            left = [pid for pid in worker_pids if running(pid)]
            if left:
                raise SystemExit(f"workers outlived their coordinator: {left}")
            print(f"both workers exited on their lifeline: {worker_pids}")
        finally:
            if server.poll() is None:
                stop_server(server)

        server, body = start_server(store)
        try:
            assert body["revision"] == UPDATES, body["revision"]
            after = query_bytes([*mix, listing])
            if after != before:
                for b, a, text in zip(before, after, [*mix, listing]):
                    if b != a:
                        print(f"MISMATCH on {text}\n  before: {b[:200]}"
                              f"\n  after:  {a[:200]}")
                raise SystemExit("results diverged across the restart")
            rows = json.loads(after[-1])["rows"]
            assert sorted(row["s"] for row in rows) == sorted(acked), rows
            print(f"restart recovered all {UPDATES} acknowledged writes; "
                  "query mix byte-identical")
            check_dead_worker(body)
        finally:
            stop_server(server)
    print("cluster smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
