"""Benchmark harness utilities: scaling, timing, table rendering.

Every experiment reads ``REPRO_SCALE`` (default 1.0) and multiplies its
dataset sizes by it; tables print the actual N next to the paper's N so the
scale substitution stays visible.  Results are printed and also appended to
``bench_results/`` so ``pytest benchmarks/ --benchmark-only`` leaves an
artifact trail.

Observability: timings run with whatever ``REPRO_OBS`` says — the default
(on) keeps the global metrics registry live, and ``REPRO_OBS=0`` turns
every probe into a no-op for instrumentation-free numbers.
:func:`archive_profiles` writes a query set's JSON operator profiles.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

#: Where experiment tables are written.
RESULTS_DIR = Path(__file__).resolve().parents[3] / "bench_results"


def scale() -> float:
    """The global dataset scale factor (env ``REPRO_SCALE``)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def scaled(base: int, minimum: int = 200) -> int:
    """``base`` triples scaled by :func:`scale`, floored at ``minimum``."""
    return max(int(base * scale()), minimum)


def time_callable(fn: Callable[[], object], repeats: int = 3,
                  warmup: int = 1) -> float:
    """Average wall-clock seconds of ``fn`` over ``repeats`` warm runs.

    Matches the paper's methodology: warm-cache, averaged over several runs
    (the paper uses 5; the default here is 3 to keep the full matrix fast —
    raise via the ``repeats`` argument).
    """
    for _ in range(warmup):
        fn()
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def time_queries(system, queries: Sequence[str], repeats: int = 3) -> float:
    """Average per-query time (ms) of a query set on one system."""
    def run_all():
        for text in queries:
            system.query(text)

    total = time_callable(run_all, repeats=repeats)
    return total / max(len(queries), 1) * 1000.0


def archive_profiles(system, queries: Sequence[str],
                     path: str | Path) -> int:
    """Run each query once with profiling on and dump the operator trees.

    Returns the number of profiles written.  Systems whose ``query`` does
    not accept a ``profile`` keyword (the baselines) and runs under
    ``REPRO_OBS=0`` produce an empty archive.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    profiles: list = []
    for text in queries:
        try:
            result = system.query(text, profile=True)
        except TypeError:
            break
        prof = getattr(result, "profile", None)
        profiles.append(prof.to_dict() if prof is not None else None)
    path.write_text(json.dumps(profiles, indent=2))
    return len([p for p in profiles if p is not None])


def format_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence]
) -> str:
    """Render an aligned text table with a title rule."""
    body = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body))
        if body
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell >= 100:
            return f"{cell:.0f}"
        if cell >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def report(name: str, table: str) -> None:
    """Print a result table and persist it under ``bench_results/``.

    At full scale the file is ``<name>.txt``, the committed table; at any
    other :func:`scale` it is ``<name>.scale-<factor>.txt``, so a scaled
    run never overwrites the full-scale numbers."""
    print()
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    factor = scale()
    suffix = "" if factor == 1 else f".scale-{factor:g}"
    path = RESULTS_DIR / f"{name}{suffix}.txt"
    path.write_text(table + "\n")


def mb(size_bytes: int) -> float:
    """Bytes to megabytes, as Figure 8 reports sizes."""
    return size_bytes / (1024 * 1024)
