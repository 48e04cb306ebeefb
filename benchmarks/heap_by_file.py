"""Where the live heap sits after the suite's engine workloads.

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/heap_by_file.py \\
        [--seed S] [--smoke] [--top N]

Replays the benchmark suite's ``engine_maintain`` op list (bulk load, change
events, probe queries) in this process under ``tracemalloc`` and writes the
live bytes per source file once the last op has run (after a full
collection, which also empties CPython's free lists), next to the number the
suite reports as the index size (``RDFTX.sizeof()``, storage-layout bytes),
and the ingestion graph row: what the base graphs the arm keeps alive cost
per fact, the bytes traced to ``model/graph.py`` (their dictionaries are
``model/dictionary.py``'s).  Then, for ``engine_maintain`` and
``engine_fig9_warm`` (one untimed and the
timed passes of the fig9 mix, with their inserts), a census of what the
engine holds by structure: the decoded-leaf memo (resident flat forms and
the intern pool), the live index of packed live leaves (its bytearray of
records and its restart marks, per live key it holds), the packed buffers
and the nodes.  Last, the plan cache of a ``serve_http_mix`` replay: the
mix's read texts compiled in op order until the cache is full, the high-
water mark the server reaches before its one statistics refresh clears
it.  Everything goes to ``bench_results/heap_engine_maintain.txt``.

A breakdown to start a memory change from, not a metric: ``tracemalloc``
slows the run several-fold and counts Python-level allocations only, and
the census is ``sys.getsizeof`` with each object charged once, to the
first structure in that order that reaches it; nothing here gates and no
timing is reported.  What the arm keeps alive stays alive here too (the
workload with its copy of the base graph, and the base graph the engine
was loaded from).
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / "bench_results" / "heap_engine_maintain.txt"


def use_suite() -> None:
    """Put the suite's modules on the path, then (bootstrap) the
    program's."""
    suite = str(REPO / "benchmarks" / "suite")
    if suite not in sys.path:
        sys.path.insert(0, suite)
    import measure

    measure.bootstrap()


def replay(name: str, seed: int, smoke: bool) -> tuple:
    """``(engine, workload, base)`` after the workload's last op: the
    engine plus what the suite's arm still references at that point."""
    import workloads
    from repro import RDFTX, Optimizer

    scale = workloads.Scale.smoke_scale() if smoke else workloads.Scale()
    workload = workloads.BUILDERS[name](seed, scale)
    if name == "engine_maintain":
        base, _ = workloads.maintain_history(
            seed, scale, workloads.maintain_events(scale))
        engine = RDFTX.from_graph(base)
    else:  # engine_fig9_warm
        base = workload.graph
        engine = RDFTX(optimizer=Optimizer())
        engine.load(base)
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


def graph_table(snapshot, graphs) -> str:
    """Traced bytes per fact of the live ingestion graphs (see the module
    docstring)."""
    size = sum(
        stat.size for stat in snapshot.statistics("filename")
        if Path(stat.traceback[0].filename).parts[-2:] == ("model",
                                                          "graph.py")
    )
    facts = sum(len(graph) for graph in graphs)
    return (
        f"# the {len(graphs)} base graphs the arm keeps alive (tracemalloc, "
        f"model/graph.py; dictionary excluded)\n"
        f"{'structure':<44} {'MB':>8} {'facts':>9} {'B/fact':>9}\n"
        f"{'ingestion graph':<44} {size / 1e6:>8.2f} {facts:>9} "
        f"{size / max(facts, 1):>9.1f}\n"
    )


def _charge(roots, seen: set[int]) -> tuple[int, int]:
    """``(bytes, objects)`` reachable from ``roots`` through containers
    and entries, skipping (and then marking) objects already charged."""
    from repro.mvbt.entry import IndexEntry, LeafEntry

    size = count = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        count += 1
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (LeafEntry, IndexEntry)):
            stack.extend((obj.key, obj.start, obj.end))
    return size, count


def _slots(obj) -> list:
    """The values of ``obj``'s slots, up its classes; reading them, unlike
    ``vars()``, allocates nothing."""
    missing = object()
    values = (
        getattr(obj, name, missing)
        for cls in type(obj).__mro__
        for name in cls.__dict__.get("__slots__", ())
    )
    return [value for value in values if value is not missing]


def census(engine, label: str) -> str:
    """The engine's heap by structure (see the module docstring)."""
    nodes = [node for tree in engine.indexes.values()
             for node in tree._all_nodes()]
    leaves = [node for node in nodes if node.is_leaf]
    stores = [leaf._store for leaf in leaves if leaf.is_compressed]
    memo = engine.memo.report()
    indexed_keys = sum(
        leaf.live_count for leaf in leaves
        if leaf._live is not None
        or (leaf.is_compressed and leaf._store._live is not None))
    seen: set[int] = set()
    rows = [
        ("decoded memo", _charge(
            [s._decoded for s in stores] + [engine.memo._pool], seen)),
        ("live index", _charge(
            [part for s in stores for part in (s._live, s._marks)]
            + [leaf._live for leaf in leaves], seen)),
        ("packed buffers", _charge(
            [part for s in stores for part in (s, s._buf, s._last)],
            seen)),
        ("nodes", _charge(
            [part for node in nodes for part in (node, *_slots(node))],
            seen)),
    ]
    lines = [
        f"# {label}: census by structure (sys.getsizeof, each object "
        f"charged once, top row first)",
        f"# memo: {memo['entries']} records in {memo['leaves']} of "
        f"{len(stores)} packed leaves, {memo['interned']} interned "
        f"objects, budget {memo['budget']}",
        f"# B/record: per resident memo record; per live key the live "
        f"indexes hold ({indexed_keys} keys)",
        f"{'structure':<44} {'MB':>8} {'objects':>9} {'B/record':>9}",
    ]
    per_row = {"decoded memo": memo["entries"], "live index": indexed_keys}
    for name, (size, count) in rows:
        per = (f"{size / per_row[name]:>9.1f}" if per_row.get(name) else "")
        lines.append(
            f"{name:<44} {size / 1e6:>8.2f} {count:>9} {per}".rstrip())
    return "\n".join(lines) + "\n"


def serve_plan_cache(seed: int, smoke: bool):
    """An optimizer engine on ``serve_http_mix``'s data whose plan cache
    holds the mix's read texts compiled in op order, up to its capacity."""
    import workloads
    from repro import RDFTX, Optimizer
    from repro.engine.engine import PLAN_CACHE_CAPACITY

    scale = workloads.Scale.smoke_scale() if smoke else workloads.Scale()
    workload = workloads.serve_http_mix(seed, scale)
    engine = RDFTX(optimizer=Optimizer())
    engine.load(workload.graph)
    for op in workload.ops:
        if len(engine._plan_cache) == PLAN_CACHE_CAPACITY:
            break
        if op[0] == "q":
            engine.compile(workload.queries[op[1]][1])
    return engine


def reach(roots) -> tuple[int, int, Counter]:
    """``(bytes, objects, objects by type name)`` reachable from ``roots``
    through ``gc.get_referents``, each object once; types, ``None``,
    booleans and CPython's cached small ints are shared by everything and
    not counted."""
    seen: set[int] = set()
    size = 0
    kinds: Counter = Counter()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if (obj is None or isinstance(obj, (bool, type)) or id(obj) in seen
                or (type(obj) is int and -5 <= obj <= 256)):
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        kinds[type(obj).__name__] += 1
        stack.extend(gc.get_referents(obj))
    return size, sum(kinds.values()), kinds


def plan_census(engine, label: str) -> str:
    """The plan cache's entries, objects and bytes per entry."""
    plans = engine._plan_cache.values()
    size, count, kinds = reach(plans)
    per = max(len(plans), 1)
    top = ", ".join(f"{name} {n / per:.2f}" for name, n in kinds.most_common(6))
    return (
        f"# {label}: plan cache census (sys.getsizeof over everything an "
        f"entry reaches, each object charged once)\n"
        f"{'structure':<44} {'entries':>8} {'obj/entry':>9} "
        f"{'B/entry':>9}\n"
        f"{'plan cache':<44} {len(plans):>8} {count / per:>9.1f} "
        f"{size / per:>9.0f}\n"
        f"# objects per entry by type: {top}\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="the suite's smoke scale (2 000 triples)")
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    use_suite()
    tracemalloc.start()
    try:
        engine, workload, _base = replay(
            "engine_maintain", args.seed, args.smoke)
        gc.collect()  # a full collection also frees CPython's free lists
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    events = len(workload.updates())
    graphs = list({id(g): g for g in (workload.graph, _base)}.values())
    text = (
        table(snapshot, engine, events, args.top) + "\n"
        + graph_table(snapshot, graphs) + "\n"
        + census(engine, f"engine_maintain after {events} events")
    )
    del engine, workload, _base, snapshot
    engine, workload, _base = replay(
        "engine_fig9_warm", args.seed, args.smoke)
    text += "\n" + census(
        engine, f"engine_fig9_warm after {len(workload.ops)} ops")
    del engine, workload, _base
    text += "\n" + plan_census(
        serve_plan_cache(args.seed, args.smoke), "serve_http_mix replay")
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
