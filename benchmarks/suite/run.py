"""The benchmark suite's one command.

    PYTHONPATH=src python benchmarks/suite/run.py \\
        [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke]

generates the inputs from the seed, runs the workload(s), checks every
answer, and prints each metric by name with its unit plus an environment
block.  With ``--workload`` the last line of output is one JSON object
(the driver's contract: ``correct``, ``attempted``, ``failed``,
``metrics``); ``--trace 0`` reports the end-to-end metrics measured with
``REPRO_OBS=0``, ``--trace 1`` the per-layer metrics of a traced run.
Without ``--workload`` all four run in turn; ``--runs K --out FILE``
repeats them over K seeds and stores the set for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import measure


def pin_hash_seed() -> None:
    """``datasets.wikipedia`` derives numeric values from ``hash()``; the
    same seed must give the same inputs in every process."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


# --------------------------------------------------------------------------
# Reference answers: a cache-free in-process engine computed during set-up


def reference_digests(workload) -> dict[int, str]:
    """Expected digest per read op, from a private ``RDFTX`` that shares
    nothing with the measured program (no optimizer, no result cache;
    engine_maintain: uncompressed leaves, replaying the same events)."""
    from repro import RDFTX

    texts = [text for _, text in workload.queries]
    expected: dict[int, str] = {}
    if workload.name == "engine_maintain":
        engine = RDFTX.from_graph(workload.graph, compress=False)
        for op_id, op in enumerate(workload.ops):
            if op[0] == "q":
                result = engine.query(texts[op[1]])
                expected[op_id] = measure.digest_rows(
                    result.variables, result.rows
                )
            elif op[0] == "insert":
                engine.insert(*op[1:])
            else:
                engine.delete(*op[1:])
        return expected
    engine = RDFTX.from_graph(workload.graph)
    per_query: dict[int, str] = {}
    for op_id, op in enumerate(workload.ops):
        if op[0] != "q":
            continue
        if op[1] not in per_query:
            result = engine.query(texts[op[1]])
            per_query[op[1]] = measure.digest_rows(
                result.variables, result.rows
            )
        expected[op_id] = per_query[op[1]]
    return expected


def committed_rollup(workload) -> str | None:
    """The digest committed for this exact (workload, seed, scale), if
    any: catches generator drift as well as answer drift."""
    path = measure.SUITE / "digests_seed7.json"
    if not path.is_file():
        return None
    table = json.loads(path.read_text())
    if table.get("hash_algorithm") != sys.hash_info.algorithm:
        return None
    return table["rollups"].get(rollup_key(workload))


def reference_rollup(expected: dict[int, str]) -> str:
    return measure.rollup([expected[op_id] for op_id in sorted(expected)])


def rollup_key(workload) -> str:
    scale = workload.scale
    return (f"{workload.name}:seed={workload.seed}:triples={scale.triples}"
            f":seconds={scale.seconds:g}:smoke={int(scale.smoke)}")


# --------------------------------------------------------------------------
# Arms


def _child(script: str, args, workload: str, seed: int, tag: str,
           extra: list[str]) -> dict:
    work = measure.WORK / f"{os.getpid()}-{tag}"
    out = measure.WORK / f"{os.getpid()}-{tag}.json"
    measure.WORK.mkdir(parents=True, exist_ok=True)
    argv = [
        sys.executable, str(measure.SUITE / script),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.scale.seconds),
        "--smoke", str(int(args.scale.smoke)),
        "--work", str(work), "--out", str(out), *extra,
    ]
    # its own process group, so a timeout also reaches the server or
    # cluster workers the child started
    child = subprocess.Popen(argv, start_new_session=True)
    try:
        if child.wait(timeout=170) != 0:
            raise RuntimeError(f"{script} {tag} exited {child.returncode}")
        return json.loads(out.read_text())
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        shutil.rmtree(work, ignore_errors=True)
        out.unlink(missing_ok=True)


def run_arm(args, workload: str, seed: int, obs: int, mode: str = "full") -> dict:
    return _child("arms.py", args, workload, seed, f"arm{obs}{mode}",
                  ["--obs", str(obs), "--mode", mode])


def run_layers(args, workload: str, seed: int) -> dict:
    return _child("layers.py", args, workload, seed, "layers", [])


# --------------------------------------------------------------------------
# Turning an arm's raw result into metrics


def check_answers(arm: dict, expected: dict[int, str]) -> tuple[int, list[str]]:
    """Wrong or missing answers among the ops the arm digested."""
    wrong = []
    for op_id, digest in arm["answers"]:
        if expected.get(op_id) != digest:
            wrong.append(f"op {op_id}: answer differs from the reference")
    return len(wrong), wrong[:5]


def ops_per_s(workload, arm: dict) -> float:
    return (len(workload.ops) - workload.warmup) / arm["window_s"]


def end_to_end(workload, arm: dict, setups: list[dict],
               failed: int, attempted: int) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as ``name -> (value, samples)``, raw wall
    clock; a percentile without ten samples beyond it is left out."""
    out: dict[str, tuple[float, int]] = {
        "setup_s": (
            measure.median([s["setup_s"] for s in setups]), len(setups)),
        "ops_per_s": (ops_per_s(workload, arm),
                      len(workload.ops) - workload.warmup),
    }
    for kind, values in arm["latency_ms"].items():
        if not values:
            continue
        out[f"{kind}_ms_p50"] = (measure.median(values), len(values))
        p95 = measure.tail(values)
        if p95 is not None:
            out[f"{kind}_ms_p95"] = (p95, len(values))
    out["index_bytes_per_triple"] = (
        arm["index_bytes"] / arm["index_triples"], arm["index_triples"]
    )
    out["peak_rss_mb"] = (arm["rss_kb"] / 1024.0, 1)
    out["failed_ratio"] = (failed / attempted, attempted)
    out["cpu_kernel_ms"] = (
        measure.median(arm["kernel_ms"]), len(arm["kernel_ms"]))
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def window_layers(arm: dict) -> dict[str, float]:
    """Per-layer counts: deltas of the program's own registry across the
    traced arm's timed window (0 where the workload never enters the
    layer)."""
    c = arm["counters"]

    def get(name: str) -> float:
        return c.get(name, 0)

    updates = len(arm["latency_ms"]["update"])
    tree_updates = (get("mvbt.tree.inserts") + get("mvbt.tree.deletes")) / 4
    return {
        "engine.plan_cache.hit_ratio": _ratio(
            get("engine.plan_cache.hits"),
            get("engine.plan_cache.hits") + get("engine.plan_cache.misses")),
        "engine.sync_joins": get("engine.sync_joins"),
        "engine.hash_joins": get("engine.hash_joins"),
        "mvbt.tree.version_splits_per_1k": _ratio(
            1000 * get("mvbt.tree.version_splits"), tree_updates),
        "mvbt.tree.key_splits_per_1k": _ratio(
            1000 * get("mvbt.tree.key_splits"), tree_updates),
        "mvbt.scan.leaves_per_scan": _ratio(
            get("mvbt.scan.leaves_visited"), get("mvbt.scan.scans")),
        "mvbt.scan.examined_per_emitted": _ratio(
            get("mvbt.scan.entries_examined"),
            get("mvbt.scan.entries_emitted")),
        "mvbt.compression.packed_scan_ratio": _ratio(
            get("mvbt.compression.packed_scans"),
            get("mvbt.scan.leaves_visited")),
        "mvbt.compression.entries_decoded_per_query": _ratio(
            get("mvbt.compression.entries_decoded"), get("engine.queries")),
        "service.cache.hit_ratio": _ratio(
            get("service.cache.hits"),
            get("service.cache.hits") + get("service.cache.misses")),
        "service.cache.invalidations": get("service.cache.invalidations"),
        "service.wal.syncs_per_update": _ratio(
            get("service.wal.syncs"), get("service.wal.appends")),
        "service.wal.bytes_per_update": _ratio(
            arm.get("wal_bytes", 0), updates),
        "service.server.rejected": get("service.server.rejected"),
        "service.server.timeouts": get("service.server.timeouts"),
        "service.store.stall_ms_max": max(
            max(values, default=0.0) for values in arm["latency_ms"].values()),
    }


# --------------------------------------------------------------------------
# One workload, one seed


def run_workload(args, name: str, seed: int) -> dict:
    """Run one workload end to end; returns the full record (both metric
    families when traced) plus the driver's verdict fields."""
    import workloads

    workload = workloads.BUILDERS[name](seed, args.scale)
    expected = reference_digests(workload)
    failed = 0
    notes: list[str] = []
    committed = committed_rollup(workload)
    if committed is not None and committed != reference_rollup(expected):
        failed += 1
        notes.append("reference answers differ from digests_seed7.json")

    arm = run_arm(args, name, seed, obs=0)
    setups = [arm]
    if not args.trace:
        # set-up is one sample per process; two more set-up-only arms
        # make the reported value a median of three
        setups += [
            run_arm(args, name, seed, obs=0, mode="setup") for _ in range(2)
        ]
    wrong, samples = check_answers(arm, expected)
    attempted = len(workload.ops) + arm.get("durability_checked", 0)
    unanswered = (len(expected) - len(arm["answers"])
                  - undigested_reads(workload))
    failed += (wrong + arm.get("durability_missing", 0)
               + max(arm["errors"], unanswered))
    notes += samples + arm["error_samples"]
    if arm.get("durability_missing"):
        notes.append(f"{arm['durability_missing']} acknowledged writes "
                     "missing after SIGKILL + restart")
    record = {
        "workload": name, "seed": seed, "attempted": attempted,
        "end_to_end": end_to_end(workload, arm, setups, failed, attempted),
    }

    if args.trace:
        traced = run_arm(args, name, seed, obs=1)
        wrong, samples = check_answers(traced, expected)
        failed += wrong + traced["errors"] + traced.get("durability_missing", 0)
        notes += samples + traced["error_samples"]
        layers = run_layers(args, name, seed)
        per_layer = {**window_layers(traced), **layers["metrics"]}
        per_layer["obs.overhead_ratio"] = _ratio(
            ops_per_s(workload, arm), ops_per_s(workload, traced))
        record["per_layer"] = per_layer
        write_trace(name, seed, args, traced["spans"], layers)

    record["failed"] = failed
    record["correct"] = failed == 0
    record["notes"] = notes
    return record


def undigested_reads(workload) -> int:
    """Reads an arm holds only to row counts: engine_fig9_warm digests
    its untimed pass and its last scheduled pass, nothing in between."""
    if workload.name != "engine_fig9_warm":
        return 0
    reads = [i for i, op in enumerate(workload.ops) if op[0] == "q"]
    digested = set(reads[:workload.warmup]) | set(reads[-workload.warmup:])
    return len(set(reads) - digested)


def write_trace(name: str, seed: int, args, client_spans, layers) -> None:
    measure.RESULTS.mkdir(parents=True, exist_ok=True)
    path = measure.RESULTS / f"trace-{name}.json"
    layer_spans = layers["spans"]
    path.write_text(json.dumps({
        "workload": name,
        "environment": measure.environment(
            seed, args.scale.triples, args.scale.seconds),
        "self_time_us": layers["self_time_us"],
        "client_spans": client_spans,
        "layer_spans": layer_spans,
    }))
    print(f"# trace: {len(client_spans)} client spans, "
          f"{len(layer_spans)} layer spans -> {path.relative_to(measure.REPO)}")


# --------------------------------------------------------------------------
# Output


def driver_metrics(record: dict, trace: bool) -> dict:
    """Exactly the metrics BENCHMARK.json promises for this mode."""
    out = {}
    if not trace:
        for name, (unit, _, _) in measure.END_TO_END.items():
            value, _ = record["end_to_end"][name]
            out[name] = {"value": value, "unit": unit}
        return out
    for name, (unit, _) in measure.DEMOTED.items():
        value, _ = record["end_to_end"].get(name, (0.0, 0))
        out[name] = {"value": value, "unit": unit}
    for name, (unit, _) in measure.PER_LAYER.items():
        out[name] = {"value": record["per_layer"][name], "unit": unit}
    return out


def print_record(record: dict) -> None:
    print(f"## {record['workload']}  seed={record['seed']}  "
          f"correct={record['correct']}  "
          f"failed={record['failed']}/{record['attempted']}")
    units = {**{k: v[0] for k, v in measure.END_TO_END.items()},
             **{k: v[0] for k, v in measure.DEMOTED.items()}}
    for name, (value, samples) in record["end_to_end"].items():
        print(f"{name:<42} {value:>14.4f} {units[name]:<6} n={samples}")
    for name, value in record.get("per_layer", {}).items():
        print(f"{name:<42} {value:>14.4f} {measure.PER_LAYER[name][0]}")
    for note in record["notes"]:
        print(f"! {note}")


def write_manifest() -> None:
    import workloads

    manifest = {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": workloads.DEFAULT_SECONDS,
        "workloads": [
            {"name": name, "why": workloads.WHY[name]}
            for name in measure.WORKLOADS
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in measure.END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in measure.per_layer_catalogue().items()
        ],
    }
    path = measure.REPO / "BENCHMARK.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {path}")


def write_digests(args) -> None:
    """Refresh digests_seed7.json for seed 7 at the gated and smoke
    scales (run on a commit whose answers are trusted)."""
    import workloads

    rollups = {}
    for scale in (args.scale, workloads.Scale.smoke_scale()):
        for name in measure.WORKLOADS:
            workload = workloads.BUILDERS[name](7, scale)
            rollups[rollup_key(workload)] = reference_rollup(
                reference_digests(workload))
    path = measure.SUITE / "digests_seed7.json"
    path.write_text(json.dumps({
        "hash_algorithm": sys.hash_info.algorithm,
        "rollups": rollups,
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=measure.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=workloads.DEFAULT_SECONDS,
                        help="amount of work, in seconds of timed window on "
                             "the seed commit (op counts are fixed by it)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="2 000 triples, op counts / 20")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat over seeds S, S+1, ... (all-workload mode)")
    parser.add_argument("--out", help="write the run set as JSON (compare.py)")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from measure.py")
    parser.add_argument("--write-digests", action="store_true",
                        help="regenerate digests_seed7.json")
    args = parser.parse_args(argv)
    args.scale = (workloads.Scale.smoke_scale() if args.smoke
                  else workloads.Scale(args.seconds))
    return args


def main(argv: list[str] | None = None) -> int:
    pin_hash_seed()
    measure.bootstrap()
    args = parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if args.write_digests:
        write_digests(args)
        return 0
    ignored = {k: v for k, v in os.environ.items()
               if k.startswith("REPRO_") and k != "REPRO_OBS"}
    for name in ignored:
        del os.environ[name]
    os.environ["REPRO_OBS"] = "0"

    env = measure.environment(args.seed, args.scale.triples,
                              args.scale.seconds)
    env["repro_env_ignored"] = ignored
    env["trace"] = args.trace
    print("# environment: " + json.dumps(env, sort_keys=True))
    started = time.perf_counter()
    names = [args.workload] if args.workload else list(measure.WORKLOADS)
    records = []
    try:
        for run in range(args.runs):
            for name in names:
                record = run_workload(args, name, args.seed + run)
                print_record(record)
                records.append(record)
    finally:
        if measure.WORK.is_dir() and not any(measure.WORK.iterdir()):
            measure.WORK.rmdir()
    print(f"# total {time.perf_counter() - started:.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": env, "records": records}, indent=1))
    if args.workload and args.runs == 1:
        record = records[0]
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": driver_metrics(record, bool(args.trace)),
        }))
        return 0
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
