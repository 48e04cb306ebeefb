"""Checks on the benchmark suite itself (not part of the tier-1 tests):

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q

Metric names are well-formed and BENCHMARK.json agrees with the
catalogue, generators are pure functions of the seed, a smoke run emits
every promised metric in both modes, and single-client registry counts
repeat exactly.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE))

import measure  # noqa: E402

measure.bootstrap()

import compare  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MANIFEST = json.loads((measure.REPO / "BENCHMARK.json").read_text())
SMOKE = workloads.Scale.smoke_scale()
#: per-layer values that are counts of the program's own registry (or
#: ratios of them): exact repeats with one client
COUNTS = (
    "engine.plan_cache.hit_ratio", "engine.sync_joins", "engine.hash_joins",
    "mvbt.tree.version_splits_per_1k", "mvbt.tree.key_splits_per_1k",
    "mvbt.scan.leaves_per_scan", "mvbt.scan.examined_per_emitted",
    "mvbt.compression.packed_scan_ratio",
    "mvbt.compression.entries_decoded_per_query",
    "service.cache.hit_ratio", "service.cache.invalidations",
    "service.wal.syncs_per_update", "service.wal.bytes_per_update",
    "service.store.replayed_records", "mvsbt.histogram.bytes",
    "mvbt.compression.bytes_per_entry", "cluster.protocol.bytes_per_row",
    "cluster.coordinator.rpcs_per_query",
    "cluster.coordinator.single_shard_ratio",
)


def run_smoke(workload: str, trace: int, seed: int = 7) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--smoke", "--trace", str(trace)],
        env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {name: run_smoke(name, 1) for name in measure.WORKLOADS}


def test_metric_names_and_manifest_agree():
    names = (list(measure.END_TO_END) + list(measure.per_layer_catalogue())
             + list(measure.WORKLOADS))
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in MANIFEST["workloads"]] == list(measure.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in MANIFEST["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in MANIFEST["per_layer"]} == measure.per_layer_catalogue()
    assert "setup_s" in measure.END_TO_END
    # the issue: "do not widen a bound past 10 %"; setup_s, which the
    # builder's contract does not let the suite demote, has the contract's
    assert all(0 < bound <= (0.25 if name == "setup_s" else 0.10)
               for name, (_, _, bound) in measure.END_TO_END.items())
    assert MANIFEST["run_seconds"] == workloads.DEFAULT_SECONDS
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])


@pytest.mark.parametrize("name", measure.WORKLOADS)
def test_op_lists_are_a_function_of_the_seed(name):
    build = workloads.BUILDERS[name]
    first, again, other = build(7, SMOKE), build(7, SMOKE), build(8, SMOKE)
    assert first.ops == again.ops and first.queries == again.queries
    assert (first.ops, first.queries) != (other.ops, other.queries)
    # every op class is present, and cold lists really are distinct
    kinds = {kind for kind, _ in first.queries}
    assert kinds == {"sel", "join", "complex"} and first.updates()
    texts = [workloads.normalize_query(text) for _, text in first.queries]
    assert len(set(texts)) == len(texts)


@pytest.mark.parametrize("name", measure.WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(name):
    result = run_smoke(name, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(measure.END_TO_END)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == measure.END_TO_END[metric][0]
        assert entry["value"] > 0, metric


def test_smoke_emits_every_per_layer_metric(traced):
    catalogue = measure.per_layer_catalogue()
    for name, result in traced.items():
        assert result["correct"], name
        assert set(result["metrics"]) == set(catalogue), name
        assert result["metrics"]["obs.overhead_ratio"]["value"] > 0
        trace = json.loads(
            (measure.RESULTS / f"trace-{name}.json").read_text())
        assert trace["client_spans"] and trace["layer_spans"]
        assert set(trace["layer_spans"][0]) >= {
            "name", "start_ns", "end_ns", "parent", "op_id"}


@pytest.mark.parametrize(
    "name", [w for w in measure.WORKLOADS if w != "serve_http_mix"])
def test_single_client_counts_repeat_exactly(name, traced):
    # serve_http_mix has two connections: its cache hits depend on how
    # the reads of one interleave with the write bursts of the other
    again = run_smoke(name, 1)
    for metric in COUNTS:
        assert (again["metrics"][metric]["value"]
                == traced[name]["metrics"][metric]["value"]), metric


def test_a_wrong_answer_is_counted():
    import run

    workload = workloads.BUILDERS["engine_fig9_warm"](7, SMOKE)
    expected = run.reference_digests(workload)
    op_id = min(expected)
    wrong, notes = run.check_answers(
        {"answers": [[op_id, "0" * 64]]}, expected)
    assert wrong == 1 and notes


def test_compare_verdicts(tmp_path):
    def run_set(path, rss, setup, failed=0):
        records = [
            {"workload": "engine_fig9_warm", "seed": seed,
             "failed": failed if seed == 3 else 0, "attempted": 100,
             "end_to_end": {"peak_rss_mb": [rss + seed / 100, 1],
                            "setup_s": [setup[seed % len(setup)], 3],
                            "ops_per_s": [1000 * 100 / rss, 10],
                            "failed_ratio": [0.0, 100]}}
            for seed in range(10)
        ]
        env = {"commit": "x", "cpus": 2, "python": "3", "triples": 1,
               "seconds": 1, "seed": 0}
        path.write_text(json.dumps({"environment": env, "records": records}))
        return str(path)

    steady, noisy = [1.0, 1.01], [1.0, 1.5]
    base = run_set(tmp_path / "a.json", 100, steady)
    text, bad = compare.report(base, base)
    assert "| same |" in text and "| diag |" in text and bad == 0
    larger = run_set(tmp_path / "b.json", 110, steady)
    text, bad = compare.report(base, larger)
    assert "| worse |" in text and bad == 1
    assert "| better |" in compare.report(larger, base)[0]
    jittery = run_set(tmp_path / "c.json", 100, noisy)
    assert "| unresolved |" in compare.report(base, jittery)[0]
    # one failed op in one run makes the set worse, whatever else it shows
    wrong = run_set(tmp_path / "d.json", 100, steady, failed=1)
    text, bad = compare.report(base, wrong)
    assert "| 1/1000 | - | - | no increase | worse |" in text and bad == 1
    assert compare.report(wrong, base)[1] == 0
