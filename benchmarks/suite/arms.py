"""One arm of one workload, run in a process of its own.

run.py starts ``python arms.py --workload W --seed S ... --obs 0|1`` once
per arm so that ``REPRO_OBS`` (read by the program at import) is set
before the program loads, and so that ``VmHWM`` is this arm's alone.  The
arm sets the program up (timed: ``setup_s``), runs the op list closed-loop
while timing every op, checks what can be checked locally, and writes one
JSON result; run.py compares the answer digests with its reference.

The program is driven only through its public entry points: ``RDFTX``,
``repro-tx generate``/``serve`` over HTTP, and ``ClusterStore``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import measure

perf = time.perf_counter


class Recorder:
    """Per-op latencies, digests and failures of one timed window."""

    def __init__(self, obs: bool) -> None:
        self.latency_ms = {name: [] for name in measure.CLASSES}
        #: the fixed kernel's time before and after the window (diagnostic)
        self.kernel_ms: list[float] = measure.cpu_kernel_ms()
        self.answers: list[list] = []
        #: update ops the program acknowledged (the durability check's list)
        self.acked: list[tuple] = []
        self.errors = 0
        self.error_samples: list[str] = []
        self.check_s = 0.0
        self.spans = measure.SpanLog() if obs else None

    def note(self, kind: str, op_id: int, start: float, end: float) -> None:
        self.latency_ms[kind].append((end - start) * 1000.0)
        if self.spans is not None:
            self.spans.add(f"client.{kind}", int(start * 1e9),
                           int(end * 1e9), op_id)

    def answer(self, op_id: int, variables, rows) -> None:
        started = perf()
        self.answers.append([op_id, measure.digest_rows(variables, rows)])
        self.check_s += perf() - started

    def fail(self, message: str) -> None:
        self.errors += 1
        if len(self.error_samples) < 5:
            self.error_samples.append(message[:300])

    def result(self, **extra) -> dict:
        return {
            "latency_ms": self.latency_ms,
            "kernel_ms": self.kernel_ms + measure.cpu_kernel_ms(),
            "answers": self.answers,
            "errors": self.errors,
            "error_samples": self.error_samples,
            "spans": self.spans.to_json() if self.spans else [],
            **extra,
        }


class SetupTimer:
    """Wall time of a set-up."""

    def __enter__(self) -> "SetupTimer":
        self._started = perf()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = perf() - self._started

    def result(self) -> dict:
        return {"setup_s": self.seconds}


def _counter_delta(before: dict, after: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value - before.get(name, 0)
    }


def _registry_counters() -> dict:
    from repro.obs import metrics

    return dict(metrics.REGISTRY.snapshot()["counters"])


def _index_stats(report: dict) -> tuple[int, int]:
    """(index bytes, live + historical triples) from a storage report."""
    return (report["total_size_bytes"],
            report["indexes"]["spo"]["total_versions"])


# --------------------------------------------------------------------------
# In-process engine arms


def _run_ops(target, workload, recorder, digest_ops: set[int],
             counters=None) -> dict:
    """Run the op list closed-loop against ``target`` — an ``RDFTX`` or a
    ``ClusterStore``, which share ``query``/``insert``/``delete``.
    Returns the timed window's wall time (net of the suite's own answer
    checking) and, when ``counters`` (a callable
    reading the program's registry) is given, the counter deltas across
    the window."""
    texts = [text for _, text in workload.queries]
    kinds = [kind for kind, _ in workload.queries]
    row_counts: dict[int, int] = {}
    window_started = perf()
    before: dict = {}
    for op_id, op in enumerate(workload.ops):
        if op_id == workload.warmup:  # the untimed pass, if any, ends here
            before = counters() if counters else {}
            window_started = perf()
            recorder.check_s = 0.0
        timed = op_id >= workload.warmup
        try:
            if op[0] == "q":
                start = perf()
                result = target.query(texts[op[1]])
                end = perf()
                if timed:
                    recorder.note(kinds[op[1]], op_id, start, end)
                if op_id in digest_ops:
                    recorder.answer(op_id, result.variables, result.rows)
                elif row_counts.setdefault(op[1], len(result.rows)) != len(
                        result.rows):
                    recorder.fail(f"op {op_id}: row count changed")
            else:
                method = target.insert if op[0] == "insert" else target.delete
                start = perf()
                method(op[1], op[2], op[3], op[4])
                end = perf()
                recorder.note("update", op_id, start, end)
                recorder.acked.append(op)
        except Exception as error:  # counted, reported, never swallowed
            recorder.fail(f"op {op_id} {op[0]}: {error!r}")
    window_s = perf() - window_started - recorder.check_s
    delta = _counter_delta(before, counters()) if counters else {}
    return {"window_s": window_s, "counters": delta}


def _all_reads(workload) -> set[int]:
    return {i for i, op in enumerate(workload.ops) if op[0] == "q"}


def _engine_result(engine, recorder, **extra) -> dict:
    return recorder.result(
        index_bytes=engine.sizeof(),
        index_triples=engine.indexes["spo"].total_versions,
        rss_kb=measure.peak_rss_kb(), **extra,
    )


def run_engine_fig9_warm(workload, args) -> dict:
    from repro import RDFTX, Optimizer
    from repro.datasets import wikipedia

    with SetupTimer() as setup:
        graph = wikipedia.generate(
            workload.scale.triples, seed=workload.seed).graph
        engine = RDFTX(optimizer=Optimizer())
        engine.load(graph)
    if args.mode == "setup":
        return setup.result()

    recorder = Recorder(args.obs)
    reads = [i for i, op in enumerate(workload.ops) if op[0] == "q"]
    per_pass = workload.warmup
    # full digests for the untimed pass and the last timed pass; every
    # other pass is held to the first pass's row counts
    digest_ops = set(reads[:per_pass]) | set(reads[-per_pass:])
    window = _run_ops(engine, workload, recorder, digest_ops,
                      _registry_counters if args.obs else None)
    return _engine_result(engine, recorder, **setup.result(), **window)


def run_engine_maintain(workload, args) -> dict:
    import workloads
    from repro import RDFTX

    with SetupTimer() as setup:
        base, _ = workloads.maintain_history(
            workload.seed, workload.scale,
            workloads.maintain_events(workload.scale),
        )
        engine = RDFTX.from_graph(base)
    if args.mode == "setup":
        return setup.result()

    recorder = Recorder(args.obs)
    window = _run_ops(engine, workload, recorder, _all_reads(workload),
                      _registry_counters if args.obs else None)
    return _engine_result(engine, recorder, **setup.result(), **window)


# --------------------------------------------------------------------------
# serve_http_mix: the real ``repro-tx serve`` process over HTTP

_READY = re.compile(r"serving .* on http://[\d.]+:(\d+)")


def program_env(obs: bool) -> dict:
    """Environment for the program's processes: shipped defaults, so no
    ``REPRO_*`` variable other than the obs switch."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_OBS"] = "1" if obs else "0"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(measure.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Server:
    """A ``repro-tx serve`` subprocess and the port it chose."""

    def __init__(self, directory: Path, data: Path | None, obs: bool) -> None:
        self.log_path = directory.with_suffix(".log")
        argv = [sys.executable, "-u", "-m", "repro.cli", "serve",
                str(directory), "--port", "0"]
        if data is not None:
            argv += ["--data", str(data)]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                argv, env=program_env(obs), stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.port = self._wait_ready()

    def _wait_ready(self, deadline: float = 120.0) -> int:
        started = time.monotonic()
        while time.monotonic() - started < deadline:
            if self.proc.poll() is not None:
                break
            match = _READY.search(self.log_path.read_text())
            if match:
                port = int(match.group(1))
                status, _ = request(self.connect(port), "GET", "/healthz")
                if status == 200:
                    return port
            time.sleep(0.005)
        self.kill()
        raise RuntimeError(
            f"server did not come up: {self.log_path.read_text()[-2000:]}"
        )

    def connect(self, port: int | None = None) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", port or self.port, timeout=120
        )

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            status, body = request(conn, "GET", path)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return json.loads(body)

    def kill(self) -> None:
        """SIGKILL: no clean shutdown, no final flush."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()


def request(conn, method: str, path: str, body: bytes | None = None):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body, headers)
    response = conn.getresponse()
    return response.status, response.read()


def generate_dataset(path: Path, triples: int, seed: int, obs: bool) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "generate", "wikipedia",
         str(triples), str(path), "--seed", str(seed)],
        env=program_env(obs), check=True, stdout=subprocess.DEVNULL,
    )


def start_served_dataset(work: Path, triples: int, seed: int,
                         obs: bool) -> tuple[Server, SetupTimer]:
    """``repro-tx generate`` + ``repro-tx serve --data`` until /healthz
    answers; returns the server and the timed set-up."""
    with SetupTimer() as setup:
        data = work / "data.tnq"
        generate_dataset(data, triples, seed, obs)
        server = Server(work / "store", data, obs)
    return server, setup


def update_body(op: tuple) -> bytes:
    return json.dumps({
        "op": op[0], "subject": op[1], "predicate": op[2],
        "object": op[3], "time": op[4],
    }).encode()


def durability(rows: list[dict], acked: list[tuple]) -> dict:
    """How many acknowledged inserts a ``?s ?o`` listing of the bench
    predicate, read after the restart, does not contain."""
    present = {(row["s"], row["o"]) for row in rows}
    missing = sum(1 for op in acked if (op[1], op[3]) not in present)
    return {"durability_checked": len(acked), "durability_missing": missing}


def bench_listing_query() -> str:
    import workloads

    return f"SELECT ?s ?o {{?s {workloads.BENCH_PREDICATE} ?o ?t}}"


def run_serve_http_mix(workload, args) -> dict:
    work = Path(args.work)
    server, setup = start_served_dataset(
        work, workload.scale.triples, workload.seed, args.obs
    )
    try:
        if args.mode == "setup":
            return setup.result()
        return _serve_window(server, workload, args, setup, work)
    finally:
        server.stop()


def _serve_window(server, workload, args, setup, work) -> dict:
    recorder = Recorder(args.obs)
    texts = [text for _, text in workload.queries]
    kinds = [kind for kind, _ in workload.queries]
    bodies = [
        json.dumps({"query": texts[op[1]]}).encode() if op[0] == "q"
        else update_body(op)
        for op in workload.ops
    ]
    clients = min(2, os.cpu_count() or 1)
    lanes: list[list[int]] = [[] for _ in range(clients)]
    for op_id, lane in enumerate(workload.lanes):
        lanes[lane % clients].append(op_id)
    responses: dict[int, bytes] = {}
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client(op_ids: list[int]) -> None:
        conn = server.connect()
        conn.connect()
        barrier.wait()
        for op_id in op_ids:
            op = workload.ops[op_id]
            is_query = op[0] == "q"
            try:
                start = perf()
                status, body = request(
                    conn, "POST", "/query" if is_query else "/update",
                    bodies[op_id],
                )
                end = perf()
            except (OSError, http.client.HTTPException) as error:
                with lock:
                    recorder.fail(f"op {op_id}: {error!r}")
                conn.close()
                conn = server.connect()
                continue
            with lock:
                recorder.note(kinds[op[1]] if is_query else "update",
                              op_id, start, end)
                if status != 200:
                    recorder.fail(f"op {op_id}: HTTP {status} {body[:120]!r}")
                elif is_query:
                    responses[op_id] = body
                else:
                    recorder.acked.append(op)
        conn.close()

    before = server.get("/metrics")["counters"] if args.obs else {}
    threads = [threading.Thread(target=client, args=(lane,))
               for lane in lanes]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = perf()
    for thread in threads:
        thread.join()
    window_s = perf() - started

    counters = {}
    if args.obs:
        counters = _counter_delta(before, server.get("/metrics")["counters"])
    storage = server.get("/debug/storage")
    index_bytes, index_triples = _index_stats(storage)
    wal_bytes = storage["store"]["wal"]["size_bytes"]
    rss_kb = measure.peak_rss_kb(server.proc.pid)
    for op_id in sorted(responses):
        payload = json.loads(responses[op_id])
        recorder.answer(op_id, payload["variables"], payload["rows"])

    # durability: kill without a clean shutdown, restart on the same
    # directory, and require every acknowledged insert to be readable
    server.kill()
    restarted = Server(work / "store", None, args.obs)
    try:
        status, body = request(
            restarted.connect(), "POST", "/query",
            json.dumps({"query": bench_listing_query()}).encode(),
        )
        rows = json.loads(body)["rows"] if status == 200 else []
    finally:
        restarted.stop()
    return recorder.result(
        **setup.result(), window_s=window_s, counters=counters,
        index_bytes=index_bytes, index_triples=index_triples,
        wal_bytes=wal_bytes, rss_kb=rss_kb,
        **durability(rows, recorder.acked),
    )


# --------------------------------------------------------------------------
# cluster_2shard_cold: coordinator in this process, two spawned workers


def _federated_counters(store) -> dict:
    """Counters summed over the coordinator and every worker."""
    total: dict[str, int] = {}
    for member in store.federated_metrics(force=True)["members"]:
        for name, value in (member["metrics"].get("counters") or {}).items():
            total[name] = total.get(name, 0) + value
    return total


def _worker_pids(store) -> list[int]:
    return [m["primary"]["pid"] for m in store.cluster_status()["members"]]


def run_cluster_2shard_cold(workload, args) -> dict:
    from repro.cluster import ClusterStore
    from repro.datasets import wikipedia
    from repro.service.store import TemporalStore

    work = Path(args.work) / "cluster"
    with SetupTimer() as setup:
        graph = wikipedia.generate(
            workload.scale.triples, seed=workload.seed).graph
        store = ClusterStore(work, shards=2, replicas=0)
        try:
            store.load_dataset(graph)
        except BaseException:
            store.close()
            raise
    try:
        if args.mode == "setup":
            return setup.result()

        recorder = Recorder(args.obs)
        window = _run_ops(
            store, workload, recorder, _all_reads(workload),
            (lambda: _federated_counters(store)) if args.obs else None,
        )
        pids = _worker_pids(store)
        rss_kb = measure.peak_rss_kb() + sum(
            measure.peak_rss_kb(pid) for pid in pids
        )
        wal_bytes = sum(
            path.stat().st_size for path in work.glob("shard-*/store.wal")
        )
        # durability: SIGKILL both workers, bring a new cluster up on the
        # same shard directories, require every acknowledged insert
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
    finally:
        store.close()
    restarted = ClusterStore(work, shards=2, replicas=0)
    try:
        rows = restarted.query(bench_listing_query()).rows
    finally:
        restarted.close()
    index_bytes = index_triples = 0
    for shard in sorted(work.glob("shard-*")):
        with TemporalStore(shard) as recovered:
            size, triples = _index_stats(recovered.storage_report())
        index_bytes += size
        index_triples += triples
    return recorder.result(
        **setup.result(), **window,
        index_bytes=index_bytes, index_triples=index_triples,
        wal_bytes=wal_bytes, rss_kb=rss_kb,
        **durability(rows, recorder.acked),
    )


RUNNERS = {
    "engine_fig9_warm": run_engine_fig9_warm,
    "engine_maintain": run_engine_maintain,
    "serve_http_mix": run_serve_http_mix,
    "cluster_2shard_cold": run_cluster_2shard_cold,
}


def enter_child(argv, doc: str, obs: int | None = None):
    """What every child process of run.py does first: parse the common
    arguments (plus ``--obs``/``--mode`` unless ``obs`` is fixed), set
    ``REPRO_OBS`` before the program is imported (it reads the switch at
    import, and spawned cluster workers inherit the environment), put the
    program on the path and start from an empty work directory."""
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    if obs is None:
        parser.add_argument("--obs", type=int, choices=(0, 1), required=True)
        parser.add_argument("--mode", choices=("full", "setup"),
                            default="full")
    args = parser.parse_args(argv)
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_OBS"] = str(args.obs if obs is None else obs)
    measure.bootstrap()
    import workloads

    shutil.rmtree(args.work, ignore_errors=True)
    Path(args.work).mkdir(parents=True)
    args.scale = workloads.Scale(args.seconds, bool(args.smoke))
    return args


def main(argv: list[str] | None = None) -> int:
    args = enter_child(argv, __doc__)
    import workloads

    if args.mode == "setup":  # set-up needs the seed and scale, no ops
        workload = workloads.Workload(
            args.workload, args.seed, args.scale, None)
    else:
        workload = workloads.BUILDERS[args.workload](args.seed, args.scale)
    result = RUNNERS[args.workload](workload, args)
    result["workload"] = args.workload
    result["obs"] = args.obs
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
