"""Command-line interface for RDF-TX.

Subcommands::

    repro-tx info DATASET.tnq              dataset statistics
    repro-tx query DATASET.tnq 'SELECT …'  run a SPARQLT query
    repro-tx shell DATASET.tnq             interactive SPARQLT shell
    repro-tx stats DATASET.tnq             metrics registry report
    repro-tx generate KIND N OUT.tnq       write a synthetic dataset
    repro-tx snapshot DATASET.tnq OUT      compile a dataset to a snapshot
    repro-tx serve DIR                     durable HTTP SPARQLT endpoint
    repro-tx cluster-status URL            cluster topology and health
    repro-tx doctor TARGET                 storage health report
    repro-tx lint [PATHS…]                 project-specific static analysis

``query --analyze`` prints an EXPLAIN ANALYZE-style operator tree with
estimated vs. actual rows and per-operator timings; ``stats`` renders the
global metrics registry (``repro.obs``) after loading and optionally
querying.  ``REPRO_OBS=0`` disables all instrumentation.

``DATASET`` files use the temporal N-Quads format (see ``repro.io``);
``.gz`` paths are compressed transparently.  Every command that takes a
``DATASET`` also accepts a binary snapshot (``repro-tx snapshot``, or a
``store.snap`` from a serve directory) — detected by magic bytes, loading
in milliseconds instead of re-running parse + bulk load + compression.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

# Each subcommand imports what it runs, inside its ``cmd_*`` function:
# ``generate`` writes a text file and ``cluster-status`` reads a URL, and
# neither should pay for loading the engine.
if TYPE_CHECKING:
    from .engine import RDFTX


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tx",
        description="RDF-TX: query the history of RDF knowledge bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="dataset statistics")
    info.add_argument("dataset")

    query = sub.add_parser("query", help="run one SPARQLT query")
    query.add_argument("dataset")
    query.add_argument("sparqlt", help="the SPARQLT query text")
    query.add_argument("--explain", action="store_true",
                       help="print the query plan")
    query.add_argument("--analyze", action="store_true",
                       help="profile the execution: print the operator tree "
                            "with estimated/actual rows and timings")
    query.add_argument("--no-optimizer", action="store_true",
                       help="disable the cost-based optimizer")
    query.add_argument("--time", action="store_true",
                       help="print execution time")

    shell = sub.add_parser("shell", help="interactive SPARQLT shell")
    shell.add_argument("dataset")
    shell.add_argument("--no-optimizer", action="store_true")
    shell.add_argument("--time", action="store_true",
                       help="print per-statement execution time")

    stats = sub.add_parser(
        "stats",
        help="load a dataset (optionally run queries) and print the "
             "global metrics registry",
    )
    stats.add_argument("dataset")
    stats.add_argument("--sparqlt", action="append", default=[],
                       metavar="QUERY",
                       help="run a query before reporting (repeatable)")
    stats.add_argument("--prometheus", action="store_true",
                       help="render in Prometheus text exposition format")
    stats.add_argument("--json", action="store_true",
                       help="JSON instead of text rendering")
    stats.add_argument("--no-optimizer", action="store_true")
    stats.add_argument("--workload", action="store_true",
                       help="also print the per-shape workload table "
                            "(query fingerprints)")

    generate = sub.add_parser("generate", help="write a synthetic dataset")
    generate.add_argument("kind", choices=("wikipedia", "govtrack", "yago"))
    generate.add_argument("triples", type=int)
    generate.add_argument("output")
    generate.add_argument("--seed", type=int, default=0)

    snapshot = sub.add_parser(
        "snapshot",
        help="compile a dataset into a binary snapshot (fast reload)",
    )
    snapshot.add_argument("dataset")
    snapshot.add_argument("output")
    snapshot.add_argument("--no-optimizer", action="store_true")

    serve = sub.add_parser(
        "serve",
        help="serve a store directory over HTTP (WAL + snapshots)",
    )
    serve.add_argument("directory",
                       help="store directory (created if missing)")
    serve.add_argument("--data", metavar="DATASET",
                       help="bulk-load this dataset into an empty store "
                            "(temporal N-Quads or snapshot)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8094)
    serve.add_argument("--workers", type=int, default=8,
                       help="max in-flight requests (excess gets 503)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-request deadline in seconds (504 past it)")
    serve.add_argument("--group-commit", type=int, default=32,
                       metavar="N", help="fsync the WAL every N updates")
    serve.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="auto-checkpoint every N updates")
    serve.add_argument("--no-fsync", action="store_true",
                       help="never fsync the WAL (faster; loses machine-"
                            "crash durability, keeps process-kill safety)")
    serve.add_argument("--no-optimizer", action="store_true")
    serve.add_argument("--query-cache", type=int, default=256, metavar="N",
                       help="revision-tagged result-cache capacity "
                            "(0 disables; default 256)")
    serve.add_argument("--trace-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="fraction of POST requests recording a full "
                            "trace (0..1; default 1.0)")
    serve.add_argument("--slow-ms", type=float, default=None,
                       metavar="MS",
                       help="log the full span tree of requests slower "
                            "than MS milliseconds (default: off)")
    serve.add_argument("--trace-buffer", type=int, default=128,
                       metavar="N",
                       help="recent traces kept for /debug/traces "
                            "(default 128)")
    serve.add_argument("--stats-refresh-qerror", type=float, default=None,
                       metavar="Q",
                       help="rebuild optimizer statistics when the "
                            "sampled median q-error sustains at or above "
                            "Q (default: off)")
    serve.add_argument("--log-level", default="warning",
                       choices=("debug", "info", "warning", "error"),
                       help="structured-log threshold; 'info' turns on "
                            "per-request access lines (default: warning)")
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="run a sharded cluster of N worker processes "
                            "behind the HTTP endpoint (0 = single-process "
                            "standalone store; default 0)")
    serve.add_argument("--replicas", type=int, default=0, metavar="M",
                       help="WAL-shipped read replicas per shard "
                            "(requires --shards; default 0)")
    serve.add_argument("--metrics-refresh", type=float, default=0.0,
                       metavar="SECS",
                       help="background federated-metrics pull interval "
                            "for /metrics?scope=cluster (requires "
                            "--shards; 0 = pull on demand; default 0)")

    cluster_status = sub.add_parser(
        "cluster-status",
        help="topology and per-member health of a running cluster "
             "(reads /healthz)",
    )
    cluster_status.add_argument(
        "url", nargs="?", default="http://127.0.0.1:8094",
        help="base URL of the serving endpoint "
             "(default http://127.0.0.1:8094)")
    cluster_status.add_argument("--json", action="store_true",
                                help="emit the raw /healthz payload")
    cluster_status.add_argument(
        "--metrics", action="store_true",
        help="also pull /metrics?scope=cluster and print per-member "
             "request counts and replica lag")

    doctor = sub.add_parser(
        "doctor",
        help="storage health report: MVBT depth/fill/compression, "
             "dictionary, WAL, caches — with anomaly warnings",
    )
    doctor.add_argument("target",
                        help="a dataset file, snapshot, or serve directory")
    doctor.add_argument("--json", action="store_true",
                        help="emit the raw report as JSON")

    # ``lint`` parses its own arguments (see :func:`main`), so the
    # analyzer is not imported to build every other command's parser.
    sub.add_parser(
        "lint", add_help=False,
        help="project-specific static analysis (lock discipline, MVBT "
             "invariants, metrics hygiene)",
    )

    return parser


def _load_engine(path: str, use_optimizer: bool) -> RDFTX:
    """Build an engine from ``path`` — a dataset file or a snapshot.

    Snapshots (detected by magic bytes) skip the parse + bulk-load +
    compress pipeline entirely.
    """
    from .engine import RDFTX
    from .io import load_graph
    from .service.snapshot import is_snapshot, load_snapshot

    if is_snapshot(path):
        engine, _ = load_snapshot(path, use_optimizer=use_optimizer)
        return engine
    graph = load_graph(path)
    optimizer = None
    if use_optimizer:
        from .optimizer import Optimizer

        optimizer = Optimizer()
    return RDFTX.from_graph(graph, optimizer=optimizer)


def cmd_info(args) -> int:
    from .model.graph import TemporalGraph
    from .model.time import format_chronon

    engine = _load_engine(args.dataset, use_optimizer=False)
    graph = TemporalGraph.from_encoded(
        engine.dictionary, engine.history_rows()
    )
    predicates = graph.predicate_counts()
    starts = [t.period.start for t in graph]
    print(f"triples:        {len(graph)}")
    print(f"subjects:       {graph.distinct_subjects()}")
    print(f"predicates:     {len(predicates)}")
    if starts:
        print(f"history:        {format_chronon(min(starts))} .. "
              f"{format_chronon(engine.horizon - 1)}")
    live = sum(1 for t in graph if t.period.is_live)
    print(f"live facts:     {live}")
    print(f"raw size:       {graph.raw_size()} bytes")
    print(f"index size:     {engine.sizeof()} bytes (4 compressed MVBT "
          f"+ dictionary)")
    return 0


def cmd_query(args) -> int:
    from .sparqlt import SparqltError

    engine = _load_engine(args.dataset, not args.no_optimizer)
    try:
        if args.explain:
            print(engine.explain(args.sparqlt))
            print()
        start = time.perf_counter()
        result = engine.query(args.sparqlt, profile=args.analyze)
        elapsed = (time.perf_counter() - start) * 1000
    except SparqltError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(result.to_table())
    print(f"\n{len(result)} row(s)", end="")
    if args.time:
        print(f" in {elapsed:.2f} ms", end="")
    print()
    if args.analyze:
        print()
        if result.profile is not None:
            print(result.profile.render())
        else:
            from .obs import metrics as _obs_metrics

            reason = ("REPRO_OBS=0" if not _obs_metrics.ENABLED
                      else "no profile recorded")
            print(f"(profiling disabled: {reason})")
    return 0


def cmd_stats(args) -> int:
    from .obs import REGISTRY
    from .obs import metrics as _obs_metrics
    from .sparqlt import SparqltError

    if not _obs_metrics.ENABLED:
        # Nothing would be recorded: loading and querying with the kill
        # switch on produces an all-zero report, which reads like a bug.
        print("observability is disabled (REPRO_OBS=0): no metrics to "
              "report; unset REPRO_OBS to collect them")
        return 0
    engine = _load_engine(args.dataset, not args.no_optimizer)
    for text in args.sparqlt:
        try:
            engine.query(text)
        except SparqltError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.prometheus:
        print(REGISTRY.render_prometheus(), end="")
    elif args.json:
        print(REGISTRY.render_json())
    else:
        print(REGISTRY.render_text())
    if args.workload:
        from .obs import workload as _workload

        print()
        print(_workload.WORKLOAD.render_text())
    return 0


def cmd_shell(args) -> int:
    from .obs import metrics as _obs_metrics
    from .sparqlt import SparqltError

    engine = _load_engine(args.dataset, not args.no_optimizer)
    print(f"RDF-TX shell — {args.dataset} loaded "
          f"({sum(t.live_records for t in engine.indexes.values()) // 4} "
          f"live facts). Type .help for commands.")
    explain = False
    analyze = False
    timing = args.time
    buffer: list[str] = []
    while True:
        prompt = "... " if buffer else "tx> "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return 0
        stripped = line.strip()
        if not buffer and stripped.startswith("."):
            if stripped in (".quit", ".exit"):
                return 0
            if stripped == ".help":
                print(".quit        leave the shell\n"
                      ".explain     toggle plan printing\n"
                      ".time        toggle per-statement timing\n"
                      ".analyze     toggle operator profiles "
                      "(EXPLAIN ANALYZE)\n"
                      "end a query with an empty line or ';'")
            elif stripped == ".explain":
                explain = not explain
                print(f"explain {'on' if explain else 'off'}")
            elif stripped == ".time":
                timing = not timing
                print(f"timing {'on' if timing else 'off'}")
            elif stripped == ".analyze":
                analyze = not analyze
                if analyze and not _obs_metrics.ENABLED:
                    print("analyze on (but REPRO_OBS=0: profiles disabled)")
                else:
                    print(f"analyze {'on' if analyze else 'off'}")
            else:
                print(f"unknown command {stripped!r}")
            continue
        if stripped.endswith(";"):
            buffer.append(stripped[:-1])
        elif stripped:
            buffer.append(stripped)
            continue
        if not buffer:
            continue
        text = " ".join(buffer)
        buffer = []
        try:
            if explain:
                print(engine.explain(text))
            start = time.perf_counter()
            result = engine.query(text, profile=analyze)
            elapsed = (time.perf_counter() - start) * 1000
            print(result.to_table())
            summary = f"{len(result)} row(s)"
            if timing:
                summary += f" in {elapsed:.2f} ms"
            print(summary)
            if analyze and result.profile is not None:
                print(result.profile.render())
        except SparqltError as error:
            print(f"error: {error}")


def cmd_generate(args) -> int:
    from . import datasets
    from .io import dump_graph

    # only the chosen generator's module is loaded (lazy package exports)
    generator = getattr(datasets, args.kind)
    graph = generator.generate(args.triples, seed=args.seed).graph
    count = dump_graph(graph, args.output)
    print(f"wrote {count} triples to {args.output}")
    return 0


def cmd_snapshot(args) -> int:
    from .service.snapshot import save_snapshot

    start = time.perf_counter()
    engine = _load_engine(args.dataset, not args.no_optimizer)
    built = time.perf_counter()
    path = save_snapshot(engine, args.output)
    saved = time.perf_counter()
    size = path.stat().st_size
    print(f"wrote {path} ({size} bytes): "
          f"build {1000 * (built - start):.0f} ms, "
          f"serialize {1000 * (saved - built):.0f} ms")
    return 0


def cmd_serve(args) -> int:
    from .obs import log as _obslog
    from .service.server import serve
    from .service.store import TemporalStore

    _obslog.set_level(args.log_level)
    if args.replicas and not args.shards:
        print("error: --replicas requires --shards", file=sys.stderr)
        return 1
    if args.shards:
        return _serve_cluster(args)
    store = TemporalStore(
        args.directory,
        use_optimizer=not args.no_optimizer,
        group_size=args.group_commit,
        fsync=not args.no_fsync,
        checkpoint_every=args.checkpoint_every,
        query_cache_size=args.query_cache or None,
        stats_refresh_qerror=args.stats_refresh_qerror,
    )
    try:
        if args.data:
            if store.revision != 0 or store.live_facts != 0:
                print(f"error: --data given but {args.directory} is not "
                      f"empty (revision {store.revision})", file=sys.stderr)
                return 1
            print(f"loading {args.data} ...")
            # The store adopts the pre-built engine (dataset or
            # snapshot) under its own settings and checkpoints, so the
            # directory is self-contained.
            store.adopt(_load_engine(args.data, not args.no_optimizer))
            print(f"loaded {store.live_facts} live facts")
        service = serve(
            store, host=args.host, port=args.port,
            max_inflight=args.workers,
            request_timeout=args.request_timeout,
            trace_sample=args.trace_sample,
            slow_ms=args.slow_ms,
            trace_capacity=args.trace_buffer,
        )
        print(f"serving {args.directory} on http://{args.host}:"
              f"{service.port} (revision {store.revision}, "
              f"{store.live_facts} live facts)")
        try:
            service.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            service.shutdown()
    finally:
        store.close()
    return 0


def _serve_cluster(args) -> int:
    """``serve --shards N [--replicas M]``: coordinator + worker fleet."""
    from .cluster import ClusterStore
    from .io import load_graph
    from .service.server import serve
    from .service.snapshot import is_snapshot

    store = ClusterStore(
        args.directory,
        shards=args.shards,
        replicas=args.replicas,
        use_optimizer=not args.no_optimizer,
        group_size=args.group_commit,
        fsync=not args.no_fsync,
        query_cache_size=args.query_cache or None,
        metrics_refresh=args.metrics_refresh or None,
    )
    try:
        if args.data:
            if is_snapshot(args.data):
                # Snapshots hold one process's compressed indexes; a
                # cluster load needs raw triples to partition by subject.
                print("error: --data with --shards needs a temporal "
                      "N-Quads dataset, not a snapshot", file=sys.stderr)
                return 1
            if store.revision != 0:
                print(f"error: --data given but {args.directory} is not "
                      f"empty (revision {store.revision})", file=sys.stderr)
                return 1
            print(f"loading {args.data} ...")
            store.load_dataset(load_graph(args.data))
            print(f"loaded {store.live_facts} live facts across "
                  f"{args.shards} shard(s)")
        service = serve(
            store, host=args.host, port=args.port,
            max_inflight=args.workers,
            request_timeout=args.request_timeout,
            trace_sample=args.trace_sample,
            slow_ms=args.slow_ms,
            trace_capacity=args.trace_buffer,
            role="coordinator",
        )
        print(f"serving {args.directory} on http://{args.host}:"
              f"{service.port} ({args.shards} shard(s), "
              f"{args.replicas} replica(s) each, "
              f"watermark {store.revision})")
        try:
            service.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            service.shutdown()
    finally:
        store.close()
    return 0


def cmd_cluster_status(args) -> int:
    import json as _json
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/healthz"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            payload = _json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as error:
        print(f"error: cannot read {url}: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(payload, indent=2))
        return 0
    role = payload.get("role", "standalone")
    print(f"role:      {role}")
    print(f"revision:  {payload.get('revision')}")
    print(f"live:      {payload.get('live_facts')}")
    cluster = payload.get("cluster")
    if cluster is None:
        print("(not a cluster coordinator: no topology section)")
        return 0
    print(f"shards:    {cluster['shards']} "
          f"(+{cluster['replicas_per_shard']} replica(s) each)")
    print(f"watermark: {cluster['watermark']}")
    for member in cluster["members"]:
        primary = member["primary"]
        state = "up" if primary.get("alive") else "DOWN"
        line = (f"  shard {member['shard']}: primary pid "
                f"{primary.get('pid')} {state}")
        if primary.get("alive"):
            line += (f", lsn {primary.get('applied_lsn')}, "
                     f"{primary.get('live_facts')} live")
        print(line)
        for index, replica in enumerate(member["replicas"]):
            state = "up" if replica.get("alive") else "DOWN"
            line = f"    replica {index}: pid {replica.get('pid')} {state}"
            if replica.get("alive"):
                line += f", lsn {replica.get('applied_lsn')}"
                lag_lsn = replica.get("lag_lsn")
                if lag_lsn:
                    line += f", lag {lag_lsn} lsn"
                    lag_seconds = replica.get("lag_seconds")
                    if lag_seconds is not None:
                        line += f" ({lag_seconds:.3f}s behind)"
            print(line)
    if args.metrics:
        return _print_cluster_metrics(args.url)
    return 0


def _print_cluster_metrics(base_url: str) -> int:
    """``cluster-status --metrics``: federated per-group counters + lag."""
    import json as _json
    import urllib.error
    import urllib.request

    url = base_url.rstrip("/") + "/metrics?scope=cluster"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            federated = _json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as error:
        print(f"error: cannot read {url}: {error}", file=sys.stderr)
        return 1
    print("\nfederated metrics "
          f"(watermark {federated.get('watermark')}):")
    for group in federated.get("groups", []):
        labels = group.get("labels", {})
        name = ",".join(
            f"{key}={value}" for key, value in sorted(labels.items())
        )
        metrics = group.get("metrics", {})
        counters = metrics.get("counters", {})
        requests = counters.get("cluster.worker.requests")
        replicated = counters.get("cluster.worker.replicated")
        line = f"  [{name or 'coordinator'}] x{group.get('members', 1)}"
        if requests is not None:
            line += f": {requests} requests"
        if replicated:
            line += f", {replicated} records replicated"
        print(line)
    for entry in federated.get("members", []):
        if entry.get("role") != "replica":
            continue
        lag = entry.get("lag_lsn")
        seconds = entry.get("lag_seconds")
        state = "up" if entry.get("alive") else "DOWN"
        line = (f"  replica shard={entry.get('shard')} "
                f"#{entry.get('replica')} pid {entry.get('pid')} {state}")
        if lag is not None:
            line += f": lag {lag} lsn"
        if seconds is not None:
            line += f", {seconds:.3f}s behind"
        print(line)
    return 0


def cmd_doctor(args) -> int:
    import json as _json
    from pathlib import Path

    from .obs import introspect as _introspect

    target = Path(args.target)
    if target.is_dir():
        from .service.store import TemporalStore

        # A serve directory: open it read-only-ish (no optimizer build —
        # the report does not need join ordering) and include WAL/cache
        # state alongside the engine walk.
        with TemporalStore(target, use_optimizer=False,
                           query_cache_size=None) as store:
            report = store.storage_report()
    else:
        engine = _load_engine(args.target, use_optimizer=False)
        report = _introspect.engine_report(engine)
    warnings = _introspect.find_anomalies(report)
    if args.json:
        report["warnings"] = warnings
        print(_json.dumps(report, indent=2))
        return 0
    print(_introspect.render_report(report))
    if warnings:
        print()
        for warning in warnings:
            print(f"warning: {warning}")
    else:
        print("\nno anomalies found")
    return 0


def cmd_lint(args) -> int:
    from .lint import checker as _lint_checker

    return _lint_checker.main(args.lint_argv)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        args.lint_argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    handler = {
        "info": cmd_info,
        "query": cmd_query,
        "shell": cmd_shell,
        "stats": cmd_stats,
        "generate": cmd_generate,
        "snapshot": cmd_snapshot,
        "serve": cmd_serve,
        "cluster-status": cmd_cluster_status,
        "doctor": cmd_doctor,
        "lint": cmd_lint,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error,
        # but keep Python from flushing to the dead pipe at shutdown.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
