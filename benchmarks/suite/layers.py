"""The per-layer probe battery of a traced run.

Replays a sample of the workload's ops (>= 200 per class, in op order)
through the program's public layer functions on private engines and
stores holding the workload's data, recording the suite's own spans
around every call.  Layers are the repo's modules; a metric's name says
which one.  Runs in a process of its own with ``REPRO_OBS=1`` so the
program's registry and tracer answer too.

Timings are medians of span durations; the span log is written to
``results/trace-<workload>.json`` by run.py.  Nothing here feeds an
end-to-end number.
"""

from __future__ import annotations

import json
import socket
from pathlib import Path

import arms
import measure

#: sample size per query class (a p95 needs 200)
PER_CLASS = 200
#: update events replayed through the write-path probes
MAX_EVENTS = 4000


def sample_reads(workload, per_class: int) -> list[tuple[int, str, str]]:
    """``(op_id, class, text)`` for about ``per_class`` timed reads of
    each class, evenly spaced, in op order.  Warm workloads repeat texts
    in the sample exactly as they do in the run."""
    by_kind: dict[str, list[tuple[int, str, str]]] = {}
    for op_id, op in enumerate(workload.ops):
        if op[0] == "q" and op_id >= workload.warmup:
            kind, text = workload.queries[op[1]]
            by_kind.setdefault(kind, []).append((op_id, kind, text))
    picked = []
    for ops in by_kind.values():
        step = max(1, len(ops) // per_class)
        picked.extend(ops[::step][:per_class])
    return sorted(picked)


def update_events(workload) -> list[tuple]:
    """The workload's update stream, with a synthesized delete tail when
    it never deletes (so ``delete`` paths are always measured)."""
    events = workload.updates()[:MAX_EVENTS]
    if not any(op[0] == "delete" for op in events):
        last = max(op[4] for op in events)
        events += [("delete", s, p, o, last + 1) for _, s, p, o, _ in events]
    return events


class Battery:
    def __init__(self, workload, work: Path, per_class: int) -> None:
        from repro import RDFTX, Optimizer
        from repro.io import dump_graph
        from repro.mvsbt.histogram import TemporalHistogram
        from repro.obs import metrics as registry

        self.registry = registry
        self.work = work
        self.log = measure.SpanLog()
        self.metrics: dict[str, float] = {}
        self.samples = sample_reads(workload, per_class)
        self.events = update_events(workload)
        self.graph = workload.graph
        # a second, independent copy of the data for everything durable
        self.data_file = work / "data.tnq"
        dump_graph(self.graph, self.data_file)

        def engine() -> RDFTX:
            built = RDFTX(optimizer=None)
            with self.log.span("mvbt.tree.bulk_load"):
                built.load(self.graph)
            return built

        self.p1 = engine()        # layer by layer
        self.p2 = engine()        # whole RDFTX.query / insert
        self.p3 = engine()        # untouched until the first-touch probe
        self.optimizer = Optimizer()
        with self.log.span("optimizer.rebuild"):
            self.optimizer.rebuild(self.graph)
        self.p2.optimizer = self.optimizer
        # right after the rebuild, so both builds see the same heap
        self.histogram = TemporalHistogram()
        with self.log.span("mvsbt.histogram.build"):
            self.histogram.build(self.graph)
        self.plans: list[tuple[int, str, object, list[int]]] = []
        self.p2_wall_us: dict[int, float] = {}
        self.results: list = []

    def med(self, span_name: str) -> float:
        return measure.median(self.log.durations_us(span_name))

    # ----------------------------------------------------- sparqlt / engine

    def probe_query_path(self) -> None:
        from repro.engine import PlanGraph, default_order, execute, translate_pattern
        from repro.engine.operators import project
        from repro.sparqlt import parse

        log, p1, p2 = self.log, self.p1, self.p2
        unattributed = []
        seen: set[str] = set()
        for op_id, kind, text in self.samples:
            with log.span("query", op_id):
                with log.span("sparqlt.parse", op_id) as s_parse:
                    query = parse(text)
                with log.span("engine.translate", op_id) as s_translate:
                    conjuncts = query.filter_conjuncts()
                    plans = [translate_pattern(p, p1.dictionary, conjuncts)
                             for p in query.patterns]
                    graph = PlanGraph.build(query, plans)
                name = ("optimizer.choose_order" if len(plans) > 1
                        else "engine.default_order")
                with log.span(name, op_id) as s_order:
                    order = (self.optimizer.choose_order(graph)
                             if len(plans) > 1 else default_order(graph))
                with log.span(f"engine.execute_{kind}", op_id) as s_execute:
                    rows = execute(graph, p1.indexes, p1.dictionary,
                                   p1.horizon, order)
                with log.span("engine.project", op_id) as s_project:
                    project(rows, query.select, p1.dictionary)
            with log.span("engine.query", op_id) as s_whole:
                result = p2.query(text)
            ran = [s_execute, s_project]
            if text not in seen:  # plan-cache miss: p2 compiled too
                seen.add(text)
                ran += [s_parse, s_translate, s_order]
                self.plans.append((op_id, kind, graph, order))
                self.p2_wall_us[op_id] = measure.span_us(s_whole)
                if len(self.results) < PER_CLASS:
                    self.results.append((query, result))
            unattributed.append(
                measure.span_us(s_whole) - sum(measure.span_us(s) for s in ran)
            )
        m = self.metrics
        m["sparqlt.parse_us"] = self.med("sparqlt.parse")
        m["engine.translate_us"] = self.med("engine.translate")
        for kind in ("sel", "join", "complex"):
            m[f"engine.execute_{kind}_us"] = self.med(f"engine.execute_{kind}")
        m["engine.project_us"] = self.med("engine.project")
        m["optimizer.choose_order_us"] = self.med("optimizer.choose_order")
        m["engine.unattributed_us"] = measure.median(unattributed)

    def probe_first_touch(self) -> None:
        """Cold vs warm leaves: the same plans executed three times on an
        engine nothing has read yet (the leaf memo promotes on the second
        touch, so the third is the steady state)."""
        from repro.engine import execute

        p3 = self.p3
        totals = []
        for touch in range(3):
            for op_id, _, graph, order in self.plans:
                with self.log.span(f"engine.execute.touch{touch}", op_id):
                    execute(graph, p3.indexes, p3.dictionary, p3.horizon,
                            order)
            totals.append(sum(
                self.log.durations_us(f"engine.execute.touch{touch}")))
        self.metrics["mvbt.scan.first_touch_ratio"] = totals[0] / totals[2]

    def probe_estimates(self) -> None:
        qerrors = []
        for op_id, kind, text in self.samples:
            if kind == "sel" or op_id not in self.p2_wall_us:
                continue
            profile = self.p2.query(text, profile=True).profile
            qerrors += [q for _, _, _, q in profile.pattern_qerrors()]
        self.metrics["optimizer.qerror_median"] = measure.median(qerrors)

    # ------------------------------------------------------------ mvsbt

    def probe_histogram(self) -> None:
        from repro.sparqlt.ast import TermConst

        histogram = self.histogram
        self.metrics["mvsbt.histogram.build_s"] = (
            self.med("mvsbt.histogram.build") / 1e6
        )
        self.metrics["mvsbt.histogram.bytes"] = histogram.sizeof()
        lookup = self.p1.dictionary.lookup
        for _, _, graph, _ in self.plans:
            for plan in graph.patterns:
                predicate = plan.pattern.predicate
                if not isinstance(predicate, TermConst):
                    continue
                pid = lookup(predicate.value)
                window = plan.time_range
                with self.log.span("mvsbt.histogram.point_query"):
                    histogram.predicate_occurrences(
                        pid, window.start, window.end)
                for charset in list(
                        histogram.charsets.with_predicate.get(pid, ()))[:1]:
                    with self.log.span("mvsbt.histogram.point_query"):
                        histogram.occurrences(
                            charset, pid, window.start, window.end)
        self.metrics["mvsbt.histogram.point_query_us"] = self.med(
            "mvsbt.histogram.point_query")

    # -------------------------------------------------------- mvbt reads

    def probe_scans_and_joins(self) -> None:
        from repro.mvbt.join import hash_join, synchronized_join
        from repro.mvbt.scan import (
            query_leaves,
            range_interval_scan,
            scan_leaf_pieces,
        )

        log, indexes = self.log, self.p1.indexes
        joins = 0
        for _, kind, graph, _ in self.plans:
            for plan in graph.patterns:
                tree = indexes[plan.index_order]
                w = plan.time_range
                with log.span("mvbt.scan.query_leaves"):
                    leaves = query_leaves(tree, plan.key_low, plan.key_high,
                                          w.start, w.end)
                for leaf in leaves[:32]:
                    with log.span("mvbt.scan.leaf"):
                        scan_leaf_pieces(leaf, plan.key_low, plan.key_high,
                                         w.start, w.end)
            if kind != "join" or len(graph.patterns) != 2 or joins >= 100:
                continue
            left, right = graph.patterns
            joins += 1
            # join on a shared term variable; a by-example join shares
            # only ?t, so every pair meets and the periods decide
            shared = sorted(set(left.var_slots) & set(right.var_slots))
            l_slot = left.var_slots[shared[0]] if shared else None
            r_slot = right.var_slots[shared[0]] if shared else None
            t1 = max(left.time_range.start, right.time_range.start)
            t2 = min(left.time_range.end, right.time_range.end)
            l_tree, r_tree = indexes[left.index_order], indexes[right.index_order]

            def l_key(key, slot=l_slot):
                return None if slot is None else key[slot]

            def r_key(key, slot=r_slot):
                return None if slot is None else key[slot]

            with log.span("mvbt.join.hash"):
                for _ in hash_join(
                    range_interval_scan(l_tree, left.key_low, left.key_high,
                                        t1, t2),
                    range_interval_scan(r_tree, right.key_low,
                                        right.key_high, t1, t2),
                    l_key, r_key,
                ):
                    pass
            with log.span("mvbt.join.sync"):
                for _ in synchronized_join(
                    l_tree, r_tree, l_key, r_key,
                    key_low=left.key_low, key_high=left.key_high,
                    t1=t1, t2=t2, right_key_low=right.key_low,
                    right_key_high=right.key_high,
                ):
                    pass
        m = self.metrics
        m["mvbt.scan.query_leaves_us"] = self.med("mvbt.scan.query_leaves")
        m["mvbt.scan.leaf_us"] = self.med("mvbt.scan.leaf")
        m["mvbt.join.hash_us"] = self.med("mvbt.join.hash")
        m["mvbt.join.sync_us"] = self.med("mvbt.join.sync")

    # ------------------------------------------------------- mvbt writes

    def probe_tree_writes(self) -> None:
        """The update stream's SPO keys on standalone trees, compressed
        and not: per-op medians and the paper's maintenance overhead."""
        from repro.mvbt import MVBT
        from repro.mvbt.tree import bulk_load

        encode = self.p1.dictionary.encode
        stream = [
            (op[0], (encode(op[1]), encode(op[2]), encode(op[3])), op[4])
            for op in self.events
        ]
        records = [(t.key("spo"), t.period.start, t.period.end)
                   for t in self.graph]
        totals = {}
        for compress in (True, False):
            tree = MVBT(self.p1.config)
            bulk_load(tree, records)
            if compress:
                tree.compress()
            prefix = "mvbt.tree" if compress else "plain.tree"
            for op, key, chronon in stream:
                with self.log.span(f"{prefix}.{op}"):
                    (tree.insert if op == "insert" else tree.delete)(
                        key, chronon)
            totals[compress] = sum(
                sum(self.log.durations_us(f"{prefix}.{op}"))
                for op in ("insert", "delete"))
        m = self.metrics
        m["mvbt.tree.bulk_load_s"] = self.med("mvbt.tree.bulk_load") / 1e6
        m["mvbt.tree.insert_us"] = self.med("mvbt.tree.insert")
        m["mvbt.tree.delete_us"] = self.med("mvbt.tree.delete")
        m["mvbt.compression.maintain_overhead_ratio"] = (
            totals[True] / totals[False]
        )

    def probe_leaf_store(self) -> None:
        from repro.model.time import NOW
        from repro.mvbt.compression import CompressedLeafStore, memo_entries
        from repro.mvbt.entry import LeafEntry

        size = count = 0
        seed_entries = None
        for tree in self.p1.indexes.values():
            for leaf in tree.leaf_nodes():
                if leaf.is_compressed:
                    size += leaf.sizeof()
                    count += leaf.count
                    if seed_entries is None and leaf.count >= 16:
                        seed_entries = [e.copy() for e in leaf.entries()]
        self.metrics["mvbt.compression.bytes_per_entry"] = size / count
        self.metrics["mvbt.compression.memo_entries"] = memo_entries()
        top = max(e.key for e in seed_entries)
        stamp = max(e.start for e in seed_entries)
        for round_index in range(25):
            store = CompressedLeafStore(seed_entries)
            for step in range(8):
                serial = round_index * 8 + step + 1
                entry = LeafEntry((top[0], top[1], top[2] + serial),
                                  stamp + serial, NOW, None)
                with self.log.span("mvbt.compression.append"):
                    store.append(entry)
                with self.log.span("mvbt.compression.end_live"):
                    store.end_live(entry.key, stamp + serial + 1)
        self.metrics["mvbt.compression.append_us"] = self.med(
            "mvbt.compression.append")
        self.metrics["mvbt.compression.end_live_us"] = self.med(
            "mvbt.compression.end_live")

    def probe_engine_updates(self) -> None:
        for op in self.events:
            method = self.p2.insert if op[0] == "insert" else self.p2.delete
            with self.log.span(f"engine.{op[0]}"):
                method(op[1], op[2], op[3], op[4])
        self.metrics["engine.update_unattributed_us"] = (
            self.med("engine.insert")
            - 4 * self.metrics["mvbt.tree.insert_us"]
        )

    # ------------------------------------------------------------ service

    def probe_service(self) -> None:
        from repro.io import load_graph
        from repro.service.cache import QueryCache, normalize_query
        from repro.service.snapshot import load_snapshot, save_snapshot
        from repro.service.store import TemporalStore
        from repro.service.wal import WriteAheadLog

        log, m = self.log, self.metrics
        store = TemporalStore(self.work / "store")
        self.store_wall_us: dict[int, tuple[str, float]] = {}
        try:
            store.load_dataset(load_graph(self.data_file))
            overhead = []
            cache = QueryCache()
            for op_id, kind, text in self.samples:
                with log.span("service.store.query", op_id) as s_query:
                    result = store.query(text)
                wall_us = measure.span_us(s_query)
                if op_id in self.p2_wall_us:  # first-seen text: a miss
                    # selections only: the difference of two multi-ms
                    # join times is all noise
                    if kind == "sel":
                        overhead.append(wall_us - self.p2_wall_us[op_id])
                    cache.put(normalize_query(text), store.revision, result)
                self.store_wall_us[op_id] = (kind, wall_us)
            m["service.store.query_overhead_us"] = measure.median(overhead)
            for _, _, text in self.samples:
                with log.span("service.cache.lookup"):
                    cache.get(normalize_query(text), store.revision)
            m["service.cache.lookup_us"] = self.med("service.cache.lookup")
            self.hot_text = self.samples[0][2]
            store.query(self.hot_text)
            for _ in range(200):
                with log.span("service.store.hit"):
                    store.query(self.hot_text)
            for op in self.events[:640]:
                method = store.insert if op[0] == "insert" else store.delete
                with log.span("service.store.update"):
                    method(op[1], op[2], op[3], op[4])
            m["service.store.update_us"] = self.med("service.store.update")
        finally:
            store.close()

        with WriteAheadLog(self.work / "probe.wal",
                           group_size=1 << 30) as wal:
            for index in range(512):
                op = self.events[index % len(self.events)]
                with log.span("service.wal.append"):
                    wal.append(*op)
                if index % 32 == 31:
                    with log.span("service.wal.sync"):
                        wal.sync()
        m["service.wal.append_us"] = self.med("service.wal.append")
        m["service.wal.sync_ms"] = self.med("service.wal.sync") / 1000.0

        path = self.work / "probe.snap"
        self.p1.optimizer = self.optimizer
        for _ in range(3):
            with log.span("service.snapshot.save"):
                save_snapshot(self.p1, path)
            with log.span("service.snapshot.load"):
                load_snapshot(path)
        m["service.snapshot.save_s"] = self.med("service.snapshot.save") / 1e6
        m["service.snapshot.load_s"] = self.med("service.snapshot.load") / 1e6
        m["service.snapshot.bytes_per_triple"] = (
            path.stat().st_size / len(self.graph)
        )

    def probe_server(self) -> None:
        """A real ``repro-tx serve`` on the same data: HTTP overhead on a
        cached query, the program's own span trees, then SIGKILL and an
        in-process recovery of its directory."""
        from repro.service.store import TemporalStore

        log, m = self.log, self.metrics
        server = arms.Server(self.work / "served", self.data_file, obs=True)
        try:
            conn = server.connect()
            body = json.dumps({"query": self.hot_text}).encode()
            arms.request(conn, "POST", "/query", body)
            for _ in range(200):
                with log.span("service.server.round_trip"):
                    arms.request(conn, "POST", "/query", body)
            for _, _, text in self.samples[:60]:
                arms.request(conn, "POST", "/query",
                             json.dumps({"query": text}).encode())
            m["obs.trace.unattributed_ratio"] = self._unattributed(server)
            for op in self.events[:320]:
                arms.request(conn, "POST", "/update", arms.update_body(op))
            conn.close()
        finally:
            server.kill()
        m["service.server.overhead_us"] = (
            self.med("service.server.round_trip")
            - self.med("service.store.hit")
        )
        replayed = self.registry.counter("service.store.replayed_records")
        before = replayed.value
        with log.span("service.store.recover"):
            recovered = TemporalStore(self.work / "served")
        recovered.close()
        m["service.store.recover_s"] = self.med("service.store.recover") / 1e6
        m["service.store.replayed_records"] = replayed.value - before

    def _unattributed(self, server) -> float:
        """Share of request wall time the program's own trace trees leave
        to the root span itself."""
        listing = server.get("/debug/traces?limit=100")["traces"]
        total = uncovered = 0.0
        for item in listing:
            root = server.get(f"/debug/traces?id={item['trace_id']}")["root"]
            children = sum(c["duration_ms"] for c in root["children"])
            total += root["duration_ms"]
            uncovered += max(0.0, root["duration_ms"] - children)
        return uncovered / total if total else 0.0

    # ------------------------------------------------------------ cluster

    def probe_cluster(self) -> None:
        from repro.cluster import ClusterStore, protocol
        from repro.io import load_graph
        from repro.cluster.executor import canonical_sort

        log, m = self.log, self.metrics
        counters = self.registry.REGISTRY.counter_values
        names = ["cluster.coordinator.queries",
                 "cluster.coordinator.single_shard"]
        rpc = self.registry.histogram("cluster.coordinator.rpc_ms")
        store = ClusterStore(self.work / "cluster", shards=2, replicas=0)
        walls: dict[str, list[float]] = {"sel": [], "join": []}
        try:
            store.load_dataset(load_graph(self.data_file))
            before, rpcs_before = counters(names), rpc.count
            for op_id, kind, text in self.samples:
                # first-seen texts only: a repeat would hit the single
                # store's result cache and compare a lookup with a query
                if kind not in walls or op_id not in self.p2_wall_us:
                    continue
                with log.span("cluster.query", op_id) as s_query:
                    store.query(text)
                walls[kind].append(measure.span_us(s_query))
            after = counters(names)
        finally:
            store.close()
        queries = after[names[0]] - before[names[0]]
        m["cluster.coordinator.rpc_ms_p50"] = rpc.quantile(0.5)
        m["cluster.coordinator.rpcs_per_query"] = (
            (rpc.count - rpcs_before) / queries
        )
        m["cluster.coordinator.single_shard_ratio"] = (
            (after[names[1]] - before[names[1]]) / queries
        )
        for kind in walls:
            single = [wall for op_id, (k, wall) in self.store_wall_us.items()
                      if k == kind and op_id in self.p2_wall_us]
            m[f"cluster.overhead_ratio_{kind}"] = (
                measure.median(walls[kind]) / measure.median(single)
            )

        row_us, row_bytes, row_count, payloads = [], 0, 0, []
        for query, result in self.results:
            with log.span("cluster.protocol.query_codec"):
                protocol.decode_query(protocol.encode_query(query))
            with log.span("cluster.executor.canonical_sort"):
                canonical_sort(result.rows, result.variables)
            if not result.rows:
                continue
            with log.span("cluster.protocol.rows_codec") as s_rows:
                encoded = [protocol.encode_row(row) for row in result.rows]
                for row in encoded:
                    protocol.decode_row(row)
            row_us.append(measure.span_us(s_rows) / len(encoded))
            row_bytes += len(json.dumps(encoded, separators=(",", ":")))
            row_count += len(encoded)
            payloads.append(encoded)
        m["cluster.protocol.query_codec_us"] = self.med(
            "cluster.protocol.query_codec")
        m["cluster.executor.canonical_sort_us"] = self.med(
            "cluster.executor.canonical_sort")
        m["cluster.protocol.rows_codec_us"] = measure.median(row_us)
        m["cluster.protocol.bytes_per_row"] = row_bytes / row_count
        payloads.sort(key=len)
        # a frame must fit the socket buffer: this thread is both ends
        payload = {"ok": True, "rows": payloads[len(payloads) // 2][:200]}
        left, right = socket.socketpair()
        try:
            for _ in range(200):
                with log.span("cluster.protocol.frame"):
                    protocol.send_message(left, payload)
                    protocol.recv_message(right)
        finally:
            left.close()
            right.close()
        m["cluster.protocol.frame_us"] = self.med("cluster.protocol.frame")

    def run(self) -> dict[str, float]:
        self.probe_query_path()
        self.probe_first_touch()
        self.probe_estimates()
        self.probe_histogram()
        self.probe_scans_and_joins()
        self.probe_leaf_store()
        self.probe_tree_writes()
        self.probe_service()
        self.probe_server()
        self.probe_cluster()
        self.probe_engine_updates()
        self.metrics["optimizer.rebuild_s"] = (
            self.med("optimizer.rebuild") / 1e6
        )
        return self.metrics


def main(argv: list[str] | None = None) -> int:
    args = arms.enter_child(argv, __doc__, obs=1)
    import workloads

    workload = workloads.BUILDERS[args.workload](args.seed, args.scale)
    battery = Battery(workload, Path(args.work),
                      20 if args.scale.smoke else PER_CLASS)
    metrics = battery.run()
    self_times = {
        name: measure.median(values)
        for name, values in battery.log.self_times_us().items()
    }
    Path(args.out).write_text(json.dumps({
        "metrics": metrics, "spans": battery.log.to_json(),
        "self_time_us": self_times,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
