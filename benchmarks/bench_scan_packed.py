"""Scan-on-compressed A/B: packed-scan substrate versus decode-then-filter.

Two arms over byte-identical engines (same dataset seed, same bulk load):

* **legacy** — ``PACKED_OFF`` plus the old unconditional leaf memo
  (``HOT_USES`` patched to 1, the engine's table given an effectively
  unbounded budget): every touched leaf is decoded on first contact and
  kept resident forever;
* **packed** — the adaptive default (``PACKED_AUTO``, bounded memo):
  cold scans run directly over the delta-compressed byte buffer,
  materializing pieces only for survivors; only repeat-scanned leaves
  within the engine's budget keep a decoded form.

Measured, per arm:

* **cold first touch** — latency of a sweep of one-tick snapshot scans
  across the history plus the first pass of the fig9 query suite, all
  on a freshly-built engine (the packed path's target: entries whose
  intervals miss the slice are filtered without being materialized),
  plus the decoded entries left resident by it;
* **warm fig9 queries** — selection+join suites repeated warm (the memo
  policy's target: no regression once leaves are hot);
* **resident footprint** — decoded entries held in leaf memos after the
  cold pass and after the warm workload (the arm's own engine table,
  ``engine.memo.entries``: the arms share no budget).

Byte-identity between the arms is asserted, not sampled.  Results land in ``bench_results/BENCH_scan_packed.json`` and
``bench_results/scan_packed.txt``.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_scan_packed.py
"""

from __future__ import annotations

import json
import time

from repro.bench.harness import RESULTS_DIR, format_table, report, scaled
from repro.datasets import wikipedia
from repro.datasets.queries import join_queries, selection_queries
from repro.engine import RDFTX
from repro.mvbt import MAX_KEY, MIN_KEY, scan_pieces
from repro.mvbt import compression as comp

N_TRIPLES = scaled(16000)
DATASET_SEED = 7
WARM_REPEATS = 5

ARMS = {
    "legacy": {"mode": comp.PACKED_OFF, "hot_uses": 1, "budget": 1 << 60},
    "packed": {
        "mode": comp.PACKED_AUTO,
        "hot_uses": comp.HOT_USES,
        "budget": comp.MEMO_BUDGET,
    },
}


def build_engine():
    graph = wikipedia.generate(N_TRIPLES, seed=DATASET_SEED).graph
    return graph, RDFTX.from_graph(graph)


def run_arm(name, cfg):
    prev_mode = comp.set_packed_mode(cfg["mode"])
    prev_hot_uses, comp.HOT_USES = comp.HOT_USES, cfg["hot_uses"]
    graph, engine = build_engine()
    engine.memo.budget = cfg["budget"]
    try:
        queries = selection_queries(graph, count=8) + join_queries(
            graph, count=4
        )
        horizon = engine.horizon

        # Phase 1: cold first touch.  Two first-contact workloads on the
        # freshly-built engine: a sweep of one-tick snapshot scans across
        # the history (visited leaves hold many entries whose intervals
        # miss the slice — the low-selectivity case the packed decoder
        # filters without materializing), then the first pass of
        # the fig9 selection+join suite.  The legacy arm decodes and
        # memoizes every leaf either workload touches.
        emitted = 0
        slices = [
            (t, t + 1) for t in range(1, horizon, max(horizon // 32, 1))
        ]
        start = time.perf_counter()
        for t1, t2 in slices:
            for tree in engine.indexes.values():
                emitted += len(scan_pieces(tree, MIN_KEY, MAX_KEY, t1, t2))
        rows = [repr(engine.query(q).rows) for q in queries]
        cold_ms = (time.perf_counter() - start) * 1000.0
        cold_resident = engine.memo.entries

        # Phase 2: warm repeated queries.  The untimed pass
        # (second contact for the query-touched leaves) warms them past
        # ``hot_uses`` in both arms, so the timed loop measures the
        # steady state the memo policy promises not to regress.
        for q in queries:
            engine.query(q)
        passes = []
        for _ in range(WARM_REPEATS):
            start = time.perf_counter()
            for q in queries:
                engine.query(q)
            passes.append(time.perf_counter() - start)
        # Min-of-N: both arms serve the timed loop from the leaf memo,
        # so the best pass is the steady state and the rest is noise.
        warm_ms = min(passes) * 1000.0 / len(queries)
        warm_resident = engine.memo.entries

        return {
            "cold_scan_ms_total": round(cold_ms, 3),
            "cold_pieces_emitted": emitted,
            "cold_entries_resident": cold_resident,
            "warm_ms_per_query": round(warm_ms, 4),
            "warm_entries_resident": warm_resident,
        }, rows
    finally:
        comp.set_packed_mode(prev_mode)
        comp.HOT_USES = prev_hot_uses


def main():
    results = {}
    identity = {}
    for name, cfg in ARMS.items():
        results[name], identity[name] = run_arm(name, cfg)
    if identity["legacy"] != identity["packed"]:
        raise SystemExit("packed arm results diverge from legacy arm")

    legacy, packed = results["legacy"], results["packed"]
    payload = {
        "n_triples": N_TRIPLES,
        "arms": results,
        "byte_identical": True,
        "cold_scan_speedup": round(
            legacy["cold_scan_ms_total"]
            / max(packed["cold_scan_ms_total"], 1e-9),
            3,
        ),
        "warm_ratio": round(
            packed["warm_ms_per_query"]
            / max(legacy["warm_ms_per_query"], 1e-9),
            3,
        ),
        "resident_entries_reduction": round(
            1.0
            - packed["warm_entries_resident"]
            / max(legacy["warm_entries_resident"], 1),
            3,
        ),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_scan_packed.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    header = ["metric", "legacy", "packed"]
    rows = [
        (k, legacy[k], packed[k])
        for k in sorted(set(legacy) | set(packed))
    ]
    table = format_table(
        f"Scan-on-compressed A/B (N={N_TRIPLES}, byte-identical results)",
        header,
        rows,
    )
    report("scan_packed", table)
    print(
        f"cold-scan speedup {payload['cold_scan_speedup']}x, "
        f"warm ratio {payload['warm_ratio']}, resident-entry reduction "
        f"{payload['resident_entries_reduction']:.0%}"
    )


if __name__ == "__main__":
    main()
