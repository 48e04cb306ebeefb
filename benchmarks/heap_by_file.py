"""Where the live heap sits after the ``engine_maintain`` stream, by file.

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/heap_by_file.py \\
        [--seed S] [--smoke] [--top N]

Replays the benchmark suite's ``engine_maintain`` op list (bulk load, change
events, probe queries) in this process under ``tracemalloc`` and writes the
live bytes per source file once the last op has run to
``bench_results/heap_engine_maintain.txt``, next to the number the suite
reports as the index size (``RDFTX.sizeof()``, storage-layout bytes).

A breakdown to start a memory change from, not a metric: ``tracemalloc``
slows the run several-fold and counts Python-level allocations only, so
nothing here gates and no timing is reported.  What the arm keeps alive
stays alive here too (the workload with its copy of the base graph, and
the base graph the engine was loaded from).
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / "bench_results" / "heap_engine_maintain.txt"


def replay(seed: int, smoke: bool) -> tuple:
    """``(engine, workload, base)`` after the workload's last op: the
    engine plus what the suite's arm still references at that point."""
    import workloads
    from repro import RDFTX

    scale = workloads.Scale.smoke_scale() if smoke else workloads.Scale()
    workload = workloads.engine_maintain(seed, scale)
    base, _ = workloads.maintain_history(
        seed, scale, workloads.maintain_events(scale))
    engine = RDFTX.from_graph(base)
    texts = [text for _, text in workload.queries]
    for op in workload.ops:
        if op[0] == "q":
            engine.query(texts[op[1]])
        elif op[0] == "insert":
            engine.insert(*op[1:])
        else:
            engine.delete(*op[1:])
    return engine, workload, base


def table(snapshot, engine, events: int, top: int) -> str:
    stats = snapshot.statistics("filename")
    total = sum(stat.size for stat in stats)
    lines = [
        f"# live heap after {events} engine_maintain events "
        f"(tracemalloc, by file)",
        f"# traced total {total / 1e6:.2f} MB; RDFTX.sizeof() "
        f"{engine.sizeof() / 1e6:.2f} MB storage-layout bytes",
        f"{'file':<44} {'MB':>8} {'share':>7} {'blocks':>9}",
    ]
    for stat in stats[:top]:
        path = Path(stat.traceback[0].filename)
        try:
            name = str(path.relative_to(REPO))
        except ValueError:
            name = "/".join(path.parts[-2:])
        lines.append(
            f"{name:<44} {stat.size / 1e6:>8.2f} "
            f"{100 * stat.size / total:>6.1f}% {stat.count:>9}"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="the suite's smoke scale (2 000 triples)")
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    # the suite's modules, then (bootstrap) the program's
    sys.path.insert(0, str(REPO / "benchmarks" / "suite"))
    import measure

    measure.bootstrap()
    tracemalloc.start()
    try:
        engine, workload, _base = replay(args.seed, args.smoke)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    text = table(snapshot, engine, len(workload.updates()), args.top)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
