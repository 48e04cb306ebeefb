"""Experiment drivers: one function per table/figure of the paper (Sec 7).

Each driver builds its workload at the current ``REPRO_SCALE``, runs the
measurement, and returns structured rows; the benchmark targets under
``benchmarks/`` print them with :func:`repro.bench.harness.report`.  Queries
are pre-parsed before timing (prepared-statement style) so every system pays
the same front-end cost exactly once.
"""

from __future__ import annotations

import random
import time

from ..baselines import (
    NamedGraphBaseline,
    RDBMSBaseline,
    RDF3XBaseline,
    ReificationBaseline,
    VirtuosoBaseline,
)
from ..datasets import govtrack, wikipedia, yago
from ..datasets.queries import complex_queries, join_queries, selection_queries
from ..datasets.wikipedia import table1_statistics
from ..engine import RDFTX
from ..engine.engine import DEFAULT_CONFIG
from ..model.time import NOW
from ..mvbt.tree import MVBT, bulk_load
from ..optimizer import Optimizer, enumerate_orders, estimate_order_cost
from ..sparqlt.parser import parse
from . import sizing
from .harness import scaled, time_callable, time_queries

#: Baselines in Figure 9 legend order.
BASELINE_CLASSES = (
    RDF3XBaseline,
    NamedGraphBaseline,
    ReificationBaseline,
    VirtuosoBaseline,
    RDBMSBaseline,
)

#: The MVBT geometry used by benchmark engines: the engine's own.
BENCH_CONFIG = DEFAULT_CONFIG


def _wiki(n: int, seed: int = 1):
    return wikipedia.generate(n, seed=seed)


def _gov(n: int, seed: int = 1):
    return govtrack.generate(n, seed=seed, n_periods=max(n // 50, 60))


def _yago(n: int, seed: int = 1):
    return yago.generate(n, seed=seed)


def _engine(graph) -> RDFTX:
    return RDFTX.from_graph(graph, config=BENCH_CONFIG)


# ------------------------------------------------------------------ Table 1


def experiment_table1():
    """Table 1: average number of updates per property category."""
    dataset = _wiki(scaled(20000))
    stats = table1_statistics(dataset)
    targets = [
        ("Software", "release", 7.27),
        ("Player", "club", 5.85),
        ("Country", "gdp", 11.78),
        ("City", "population", 7.16),
    ]
    rows = []
    for category, prop, paper in targets:
        measured = stats.get((category, prop), 0.0)
        rows.append((category, prop, paper, round(measured, 2)))
    return rows


# -------------------------------------------------------------- Figure 3(b)


def experiment_fig3b():
    """Figure 3(b): time to delta-compress all MVBT leaf nodes vs N."""
    rows = []
    for base in (2000, 4000, 8000, 16000, 24000):
        n = scaled(base)
        graph = _wiki(n).graph
        engine = RDFTX.from_graph(graph, config=BENCH_CONFIG, compress=False)
        start = time.perf_counter()
        engine.compress()
        elapsed = time.perf_counter() - start
        rows.append((n, round(elapsed, 3)))
    return rows


# ---------------------------------------------------------------- Figure 8


def experiment_fig8a():
    """Figure 8(a): standard vs compressed MVBT index size (4 indices)."""
    rows = []
    for base in (2000, 4000, 8000, 16000, 24000):
        n = scaled(base)
        graph = _wiki(n).graph
        engine = _engine(graph)
        standard = sizing.standard_mvbt_size(engine)
        compressed = sizing.compressed_mvbt_size(engine)
        rows.append(
            (n, standard, compressed, round(compressed / standard, 3))
        )
    return rows


def experiment_fig8b():
    """Figure 8(b): index size across systems (dictionary included)."""
    n = scaled(16000)
    graph = _wiki(n).graph
    engine = _engine(graph)
    baselines = [cls.from_graph(graph) for cls in BASELINE_CLASSES]
    sizes = sizing.system_sizes(graph, engine, baselines)
    raw = sizes["Raw Data"]
    return [
        (name, size, round(size / raw, 2)) for name, size in sizes.items()
    ], n


# ---------------------------------------------------------------- Figure 9


def _systems_for(graph):
    systems = [("RDF-TX", _engine(graph))]
    for cls in BASELINE_CLASSES:
        systems.append((cls.name, cls.from_graph(graph)))
    return systems


def experiment_fig9_sweep(dataset: str, kind: str, repeats: int = 3,
                          profile_dir=None):
    """Figures 9(a)(b)(d)(e): selection/join sweeps on Wikipedia/GovTrack.

    Returns ``(header, rows)`` where each row is
    ``(N, time_per_system...)`` in milliseconds per query.

    With ``profile_dir`` (and ``REPRO_OBS`` on), RDF-TX's per-query
    operator profiles at each N are archived there as JSON, next to the
    printed tables.
    """
    from ..obs import metrics as _obs_metrics
    from .harness import archive_profiles

    maker = {"wikipedia": _wiki, "govtrack": _gov, "yago": _yago}[dataset]
    bases = (2000, 4000, 8000, 16000)
    rows = []
    header = None
    for base in bases:
        n = scaled(base)
        graph = maker(n).graph
        if kind == "selection":
            texts = selection_queries(graph, count=10)
        else:
            texts = join_queries(graph, count=10)
        queries = [parse(t) for t in texts]
        systems = _systems_for(graph)
        if header is None:
            header = ["N"] + [name for name, _ in systems]
        timings = [n]
        for _, system in systems:
            timings.append(round(time_queries(system, queries, repeats), 3))
        if profile_dir is not None and _obs_metrics.ENABLED:
            from pathlib import Path

            archive_profiles(
                systems[0][1], queries,
                Path(profile_dir) / f"fig9_{dataset}_{kind}_n{n}_profiles.json",
            )
        rows.append(tuple(timings))
    return header, rows


def experiment_fig9_complex(dataset: str, repeats: int = 3,
                            profile_dir=None):
    """Figures 9(c)(f): complex queries with 3-7 patterns at fixed N.

    With ``profile_dir`` (and ``REPRO_OBS`` on), RDF-TX's operator
    profiles — including estimate-vs-actual q-errors from the CMVSBT
    histogram — are archived there per pattern count.
    """
    from ..obs import metrics as _obs_metrics
    from .harness import archive_profiles

    maker = _wiki if dataset == "wikipedia" else _gov
    n = scaled(12000)
    graph = maker(n).graph
    workload = complex_queries(graph, seeds=5, max_patterns=7)
    optimizer = Optimizer(cm=8, lm=8, budget_fraction=0.5)
    systems = [
        ("RDF-TX", RDFTX.from_graph(graph, config=BENCH_CONFIG,
                                    optimizer=optimizer))
    ]
    for cls in BASELINE_CLASSES:
        systems.append((cls.name, cls.from_graph(graph)))
    header = ["patterns"] + [name for name, _ in systems]
    rows = []
    for size in sorted(workload):
        queries = [parse(t) for t in workload[size]]
        timings = [size]
        for _, system in systems:
            timings.append(round(time_queries(system, queries, repeats), 3))
        if profile_dir is not None and _obs_metrics.ENABLED:
            from pathlib import Path

            archive_profiles(
                systems[0][1], queries,
                Path(profile_dir)
                / f"fig9_{dataset}_complex_p{size}_profiles.json",
            )
        rows.append(tuple(timings))
    return header, rows, n


# --------------------------------------------------------------- Figure 10


def experiment_fig10a(repeats: int = 3):
    """Figure 10(a): best/worst plan vs the optimizer's plan, plus the time
    spent optimizing."""
    n = scaled(8000)
    graph = _wiki(n).graph
    optimizer = Optimizer(cm=8, lm=8, budget_fraction=0.5)
    engine = RDFTX.from_graph(graph, config=BENCH_CONFIG, optimizer=optimizer)
    workload = complex_queries(graph, seeds=5, max_patterns=7)
    rows = []
    for size in sorted(workload):
        best_ms = []
        worst_ms = []
        chosen_ms = []
        optimize_ms = []
        for text in workload[size]:
            query = parse(text)
            plan_graph, chosen = engine.plan_graph(query)
            start = time.perf_counter()
            engine.compile(query)  # a parsed query is never cached
            optimize_ms.append((time.perf_counter() - start) * 1000)

            orders = list(
                enumerate_orders(plan_graph, optimizer.statistics)
            )
            # Cap enumeration like the paper caps Virtuoso's runaway case.
            if len(orders) > 120:
                rng = random.Random(size)
                orders = rng.sample(orders, 120)
                if chosen not in orders:
                    orders.append(chosen)
            times = {}
            for order in orders:
                key = tuple(order)
                times[key] = _run_order(engine, plan_graph, order, repeats)
            best_ms.append(min(times.values()))
            worst_ms.append(max(times.values()))
            chosen_ms.append(
                times.get(tuple(chosen))
                or _run_order(engine, plan_graph, chosen, repeats)
            )
        count = len(workload[size])
        rows.append(
            (
                size,
                round(sum(best_ms) / count, 3),
                round(sum(chosen_ms) / count, 3),
                round(sum(worst_ms) / count, 3),
                round(sum(optimize_ms) / count, 3),
            )
        )
    return rows, n


def _run_order(engine, plan_graph, order, repeats: int) -> float:
    from ..engine.executor import execute

    def run():
        execute(plan_graph, engine.indexes, engine.dictionary,
                engine.horizon, list(order))

    return time_callable(run, repeats=repeats, warmup=1) * 1000


def experiment_fig10b():
    """Figure 10(b): index construction time (4 MVBTs + compression)."""
    rows = []
    for base in (2000, 4000, 8000, 16000, 24000):
        n = scaled(base)
        graph = _wiki(n).graph

        def build():
            RDFTX.from_graph(graph, config=BENCH_CONFIG)

        seconds = time_callable(build, repeats=3, warmup=0)
        rows.append((n, round(seconds, 3), round(seconds / n * 1e6, 1)))
    return rows


def experiment_fig10c():
    """Figure 10(c): maintenance time, standard vs compressed MVBT.

    Replays an update stream (68% inserts / 32% deletes, the mix measured
    on the real edit history) against a standard and a compressed index,
    and records each index's size before and after the stream: every leaf
    of the compressed index is a packed page from birth and is edited in
    place, so what Figure 8 measures at load is still what is being
    maintained here.
    """
    n = scaled(16000)
    updates = max(n // 8, 400)
    graph = _wiki(n).graph
    records = [
        ((sid, pid, oid), start, end)
        for sid, pid, oid, start, end in graph.encoded_rows()
    ]

    def build(compress: bool) -> MVBT:
        tree = MVBT(BENCH_CONFIG)
        bulk_load(tree, records)
        if compress:
            tree.compress()
        return tree

    def update_stream(tree: MVBT) -> float:
        rng = random.Random(99)
        time_cursor = tree.current_time + 1
        live: list = []
        start = time.perf_counter()
        done = 0
        serial = 0
        while done < updates:
            time_cursor += 1
            if live and rng.random() < 0.32:
                key = live.pop(rng.randrange(len(live)))
                tree.delete(key, time_cursor)
            else:
                key = (2_000_000 + serial, 1, serial)
                serial += 1
                tree.insert(key, time_cursor)
                live.append(key)
            done += 1
        return (time.perf_counter() - start) / updates * 1000

    def arm(compress: bool) -> tuple[float, int, int]:
        tree = build(compress)
        before = tree.sizeof()
        return update_stream(tree), before, tree.sizeof()

    standard, std_before, std_after = arm(compress=False)
    compressed, cmp_before, cmp_after = arm(compress=True)
    return [
        ("Standard MVBT", updates, round(standard, 4),
         round(std_before / 1024, 1), round(std_after / 1024, 1)),
        ("Compressed MVBT", updates, round(compressed, 4),
         round(cmp_before / 1024, 1), round(cmp_after / 1024, 1)),
        ("Overhead / size ratio", "-",
         f"{(compressed / standard - 1) * 100:+.1f}%",
         round(cmp_before / std_before, 3), round(cmp_after / std_after, 3)),
    ], n


# ------------------------------------------------------------- Section 7.4


def experiment_sec74():
    """Section 7.4: temporal histogram size and optimization time."""
    n = scaled(16000)
    dataset = _wiki(n)
    optimizer = Optimizer(cm=8, lm=8, budget_fraction=0.10)
    engine = RDFTX.from_graph(dataset.graph, config=BENCH_CONFIG,
                              optimizer=optimizer)
    histogram = optimizer.statistics.histogram
    raw = dataset.graph.raw_size()
    workload = complex_queries(dataset.graph, seeds=5, max_patterns=7)
    optimize_times = []
    for size in sorted(workload):
        for text in workload[size]:
            query = parse(text)
            start = time.perf_counter()
            engine.compile(query)
            optimize_times.append((time.perf_counter() - start) * 1000)
    return {
        "n": n,
        "raw_bytes": raw,
        "histogram_bytes": histogram.core_sizeof(),
        "fraction": histogram.core_sizeof() / raw,
        "cm": histogram.cm,
        "optimize_ms_min": round(min(optimize_times), 3),
        "optimize_ms_max": round(max(optimize_times), 3),
        "build": [_sec74_build(scaled(base)) for base in
                  (2000, 4000, 8000, 16000)],
    }


def _sec74_build(n: int) -> tuple:
    """(triples, mean ``Optimizer.rebuild`` seconds over 3 runs, candidate
    thresholds built, chosen cm) — the statistics-refresh stall: after the
    warm-up build, each run is a refresh seeded by the one before."""
    graph = _wiki(n).graph
    optimizer = Optimizer(cm=8, lm=8, budget_fraction=0.10)
    seconds = time_callable(lambda: optimizer.rebuild(graph))
    histogram = optimizer.statistics.histogram
    return n, seconds, histogram.candidates_built, histogram.cm
