"""CI smoke: the sharded cluster end to end, including shard failover.

Drives the real ``repro-tx serve --shards 2 --replicas 1`` process over
HTTP:

1. generate a dataset, start a 2-shard / 1-replica cluster with
   ``--data``, and wait for ``/healthz`` to report role ``coordinator``
   with every primary and replica alive,
2. run a fig9-style query mix (selection + join + complex shapes) and
   record the exact response bytes per query,
3. apply durable updates (routed to both shards) and wait until each
   replica's applied LSN catches up to its primary,
4. run one traced query asked of both shards and assert ``/debug/traces?id=`` returns
   a single stitched span tree with worker spans from at least two
   distinct processes (shard_id/role/pid annotated, clock skew
   estimated), then scrape ``/metrics?scope=cluster`` and assert
   nonzero per-shard request counters and zero/finite replica lag,
5. SIGKILL one shard's primary worker process (no clean shutdown),
6. re-run the query mix — every response must be byte-identical to the
   pre-kill run (modulo the updates, which are re-checked explicitly) —
   and issue a write owned by the dead shard, which forces the
   coordinator to promote the replica,
7. assert ``/healthz`` shows the promoted primary (alive, new pid, the
   replica slot drained), that ``cluster.coordinator.failovers`` is
   nonzero in ``/metrics``, and that ``/debug/events`` recorded the
   failover and the promotion.

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


def wait_replicas_caught_up(deadline=30.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        _, body = request_json("GET", "/healthz")
        members = body["cluster"]["members"]
        if all(
            replica["alive"]
            and replica["applied_lsn"] == member["primary"]["applied_lsn"]
            for member in members for replica in member["replicas"]
        ):
            return members
        time.sleep(0.2)
    raise SystemExit("replicas did not catch up to their primaries")


def query_bytes(mix):
    """The exact response body per query — the byte-identity fixture.

    Responses carry a per-request trace id and the revision watermark,
    both of which legitimately differ between runs (the watermark
    advances with every write); the identity contract is on the bindings
    themselves, so compare only variables + rows.
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

    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.tnq")
        dump_graph(graph, data)
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            os.path.join(tmp, "store"), "--data", data,
            "--shards", "2", "--replicas", "1", "--no-fsync",
            "--port", str(PORT), "--query-cache", "0",
        ]
        env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
        server = subprocess.Popen(argv, env=env)
        try:
            body = wait_healthy()
            assert body["role"] == "coordinator", body["role"]
            cluster = body["cluster"]
            assert cluster["shards"] == 2
            assert all(m["primary"]["alive"] for m in cluster["members"])
            assert all(r["alive"] for m in cluster["members"]
                       for r in m["replicas"])
            print(f"cluster up: {cluster['shards']} shards, "
                  f"{body['live_facts']} live facts")

            # updates routed to both shards, then replica catch-up
            for index in range(6):
                status, reply = request_json("POST", "/update", {
                    "op": "insert", "subject": f"smoke{index}",
                    "predicate": "smokes", "object": "yes",
                    "time": 25_000 + index,
                })
                assert status == 200, (status, reply)
            members = wait_replicas_caught_up()
            print("replicas caught up:",
                  [m["primary"]["applied_lsn"] for m in members])

            # a traced query asked of both shards (a subject star) must
            # come back as ONE stitched span tree holding worker spans
            # from >= 2 processes
            status, reply = request_json("POST", "/query", {
                "query": "SELECT ?s ?p ?o {?s ?p ?o ?t}",
            })
            assert status == 200, status
            trace_id = reply.get("trace_id")
            assert trace_id, "sampled POST should return a trace_id"
            status, detail = request_json(
                "GET", f"/debug/traces?id={trace_id}")
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

            # federated metrics: per-shard counters + finite replica lag
            status, federated = request_json(
                "GET", "/metrics?scope=cluster&force=1")
            assert status == 200, status
            shard_groups = [
                g for g in federated["groups"]
                if g["labels"].get("role") == "shard"
            ]
            assert len(shard_groups) == 2, federated["groups"]
            for group in shard_groups:
                count = group["metrics"]["counters"].get(
                    "cluster.worker.requests", 0)
                assert count > 0, group
            replica_entries = [
                m for m in federated["members"]
                if m.get("role") == "replica"
            ]
            assert len(replica_entries) == 2, federated["members"]
            for entry in replica_entries:
                assert entry["alive"], entry
                assert entry["lag_lsn"] == 0, entry
                lag_s = entry.get("lag_seconds")
                assert lag_s is None or 0.0 <= lag_s < 120.0, entry
            status, raw = request(
                "GET", "/metrics?scope=cluster&format=prometheus")
            text = raw.decode("utf-8")
            assert ('repro_cluster_worker_requests_total'
                    '{shard="0",role="shard"}') in text, text[:500]
            assert "repro_cluster_member_up{" in text
            print("federated metrics scrape ok "
                  f"({len(federated['members'])} members)")

            before = query_bytes(mix)
            print(f"query mix recorded: {len(before)} responses")

            victim_pid = members[0]["primary"]["pid"]
            os.kill(victim_pid, signal.SIGKILL)
            print(f"killed shard 0 primary (pid {victim_pid})")
            time.sleep(0.5)

            after = query_bytes(mix)
            if after != before:
                for b, a, text in zip(before, after, mix):
                    if b != a:
                        print(f"MISMATCH on {text}\n  before: {b[:200]}"
                              f"\n  after:  {a[:200]}")
                raise SystemExit("results diverged after primary death")
            print("post-kill query mix byte-identical")

            # a write owned by shard 0 forces the promotion
            subject = next(
                f"fo{i}" for i in range(10_000)
                if shard_of(f"fo{i}", 2) == 0
            )
            status, reply = request_json("POST", "/update", {
                "op": "insert", "subject": subject,
                "predicate": "promoted", "object": "yes", "time": 30_000,
            })
            assert status == 200, (status, reply)

            _, body = request_json("GET", "/healthz")
            member = body["cluster"]["members"][0]
            assert member["primary"]["alive"], member
            assert member["primary"]["pid"] != victim_pid, member
            assert member["replicas"] == [], member
            print(f"replica promoted (pid {member['primary']['pid']})")

            final = query_bytes(mix)
            if final != before:
                raise SystemExit("results diverged after promotion")
            status, raw = request("GET", "/metrics")
            failovers = json.loads(raw)["counters"].get(
                "cluster.coordinator.failovers", 0
            )
            assert failovers >= 1, failovers
            print("promoted-primary query mix byte-identical; "
                  f"failovers={failovers}")

            # the event log recorded the kill-failover promotion
            status, events_body = request_json(
                "GET", "/debug/events?limit=200")
            assert status == 200, status
            names = [e["event"] for e in events_body["events"]]
            assert "cluster.event.failover" in names, names
            assert "cluster.event.promoted" in names, names
            print(f"event log ok ({len(events_body['events'])} events, "
                  f"promotion recorded)")
        finally:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=30)
    print("cluster smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
