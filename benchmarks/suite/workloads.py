"""Seeded workload generators: one function per workload, returning the
op list from ``(seed, scale)``.

The program under test never sees the seed — only the generated dataset
and ops.  Everything is a pure function of ``(seed, scale)`` (and of
``PYTHONHASHSEED``, which run.py pins to 0 because the dataset generator
derives numeric values from ``hash()``), never of measured speed, so two
commits do identical work and single-client program counters repeat
exactly.

Every workload carries all four op classes — selection, join, complex,
update — in very different proportions and through different entry
points, so every latency metric exists on every workload and a change
that helps one class on one path has three other places to show a cost.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field

from repro.datasets import queries as qgen
from repro.datasets import wikipedia
from repro.model.graph import TemporalGraph
from repro.model.time import NOW
from repro.service.cache import normalize_query
from repro.sparqlt import parse
from repro.sparqlt.ast import TermConst, TimeConst

#: Dataset size.  The ISSUE asks for 20 000 triples; the driver's 3 420 s
#: cap for 92 runs leaves ~37 s per run for three set-ups, the reference
#: answers, the window and the restart check, and ``Optimizer.rebuild``
#: alone is 17 s at 20 000 (quadratic), so the scale is smaller.
DEFAULT_TRIPLES = 4000
SMOKE_TRIPLES = 2000
DEFAULT_SECONDS = 5

# Work per second of requested run length, calibrated on the seed commit
# (2 cpus) at DEFAULT_TRIPLES so the timed window lasts about ``seconds``.
FIG9_PASSES_PER_S = 2.0
MAINTAIN_EVENTS_PER_S = 7000
SERVE_REQUESTS_PER_S = 650
CLUSTER_OPS_PER_S = 250

#: engine_fig9_warm runs the paper's 40/20/25 mix this many times over
#: per pass (distinct queries each time): three times the queries, a
#: third of the passes, so one seed's unlucky heavy query weighs less.
FIG9_MIX = 3
#: inserts after each fig9 pass; 21 passes stay under the 256-update
#: statistics refresh, which would turn plan-cache hits into misses
FIG9_UPDATES_PER_PASS = 12
FIG9_MAX_PASSES = 21

#: Fresh predicate/subjects for served updates: no generated query names
#: them, so read answers do not depend on how writes interleave.
BENCH_PREDICATE = "bench_p"
#: First chronon past the generated history (updates must not go back).
UPDATE_EPOCH = wikipedia.HISTORY_END + 1


@dataclass(frozen=True)
class Scale:
    seconds: float = DEFAULT_SECONDS
    smoke: bool = False

    @classmethod
    def smoke_scale(cls) -> "Scale":
        """2 000 triples, op counts ÷ 20."""
        return cls(seconds=DEFAULT_SECONDS / 20, smoke=True)

    @property
    def triples(self) -> int:
        return SMOKE_TRIPLES if self.smoke else DEFAULT_TRIPLES

    def count(self, per_second: float, floor: int) -> int:
        return max(floor, round(per_second * self.seconds))


@dataclass
class Workload:
    name: str
    seed: int
    scale: Scale
    #: the bulk-loaded dataset (engine_maintain: the base of its history)
    graph: TemporalGraph
    #: distinct read queries as ``(class, text)``; ops refer to them by index
    queries: list[tuple[str, str]] = field(default_factory=list)
    #: ``("q", query_index)`` | ``("insert"|"delete", s, p, o, chronon)``
    ops: list[tuple] = field(default_factory=list)
    #: leading ops run untimed (engine_fig9_warm's pass 0)
    warmup: int = 0
    #: serve_http_mix: connection index per op (0 carries every update)
    lanes: list[int] = field(default_factory=list)

    def updates(self) -> list[tuple]:
        return [op for op in self.ops if op[0] != "q"]


# --------------------------------------------------------------------------
# Distinct query pools.  ``datasets.queries`` draws with replacement and
# some shapes have few variants (16 predicates x 12 years), so the cold
# lists top up with YEAR / rotation variants of generated queries.

_YEAR = re.compile(r"YEAR\(\?t\) = (\d{4})")
_STAR = re.compile(r"\?s (\S+) \?v\d+ \?t")
_YEARS = range(2004, 2016)


class _Pool:
    def __init__(self) -> None:
        self.texts: list[str] = []
        self._seen: set[str] = set()

    def add(self, text: str) -> bool:
        key = normalize_query(text)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.texts.append(text)
        return True


def signature(text: str) -> tuple:
    """A query's shape: which positions are constants, which predicates,
    which kind of time filter and which year — everything but the
    anchors."""
    query = parse(text)
    patterns = tuple(
        (isinstance(p.subject, TermConst),
         p.predicate.value if isinstance(p.predicate, TermConst) else "?",
         isinstance(p.object, TermConst),
         isinstance(p.time, TimeConst))
        for p in query.patterns
    )
    year = _YEAR.search(text)
    return patterns, year.group(1) if year else None, "<=" in text


def _all_years(text: str) -> list[str]:
    if not _YEAR.search(text):
        return [text]
    return [_YEAR.sub(f"YEAR(?t) = {year}", text) for year in _YEARS]


def _scrambled(keys) -> list:
    """A fixed order that owes nothing to the seed or to generation
    order."""
    return sorted(keys, key=lambda k: hashlib.sha256(repr(k).encode()).digest())


def _balanced(texts: list[str], want: int) -> list[str]:
    """``want`` texts: equal shares per coarse shape (which positions are
    constant, which filter — the generators' own 1:1:1:1:1 cycling), and
    within a coarse shape round-robin over the fine shapes (predicates,
    year) in a fixed scrambled order.

    A query's cost follows its predicates and its year far more than its
    anchor, so a list whose make-up swung with the seed had medians that
    did too (complex p50 from 1.4 to 6.6 ms over ten seeds).  This way
    every seed draws the same shapes; the anchors and the data differ."""
    coarse: dict[tuple, dict[tuple, list[str]]] = {}
    for text in texts:
        patterns, year, le = signature(text)
        outline = (tuple((s, p != "?", o, t) for s, p, o, t in patterns),
                   year is not None, le)
        coarse.setdefault(outline, {}).setdefault(
            (patterns, year), []).append(text)
    # per coarse shape: its texts, fine shapes interleaved
    lanes = []
    for outline in _scrambled(coarse):
        fine = [coarse[outline][key] for key in _scrambled(coarse[outline])]
        depth = max(len(group) for group in fine)
        lanes.append([group[d] for d in range(depth) for group in fine
                      if d < len(group)])
    out: list[str] = []
    depth = 0
    while len(out) < want:
        for lane in lanes:
            if depth < len(lane) and len(out) < want:
                out.append(lane[depth])
        depth += 1
    return out


def _fill(pool: _Pool, want: int, generate) -> list[str]:
    """Call ``generate(round_index)`` until twice ``want`` distinct texts
    exist, each YEAR-filtered one in all twelve years, then balance down
    to ``want``."""
    for round_index in range(8):
        if len(pool.texts) >= 2 * want:
            break
        for text in generate(round_index):
            for variant in _all_years(text):
                pool.add(variant)
    if len(pool.texts) < want:
        raise ValueError(
            f"only {len(pool.texts)} distinct queries, wanted {want}"
        )
    return _balanced(pool.texts, want)


def selection_pool(graph, want: int, seed: int) -> list[str]:
    return _fill(
        _Pool(), want,
        lambda r: qgen.selection_queries(graph, want * 2, seed=seed + 101 * r),
    )


def join_pool(graph, want: int, seed: int) -> list[str]:
    return _fill(
        _Pool(), want,
        lambda r: qgen.join_queries(graph, want * 2, seed=seed + 103 * r),
    )


def _rotations(text: str) -> list[str]:
    """The same star query starting from each of its predicates."""
    predicates = _STAR.findall(text)
    year = _YEAR.search(text)
    if len(predicates) < 2 or year is None:
        return []
    out = []
    for shift in range(1, len(predicates)):
        rotated = predicates[shift:] + predicates[:shift]
        patterns = " . ".join(
            f"?s {p} ?v{i} ?t" for i, p in enumerate(rotated)
        )
        select = " ".join(f"?v{i}" for i in range(len(rotated)))
        out.append(
            f"SELECT ?s {select} {{{patterns} . "
            f"FILTER(YEAR(?t) = {year.group(1)})}}"
        )
    return out


def complex_pool(graph, want: int, seed: int) -> list[str]:
    pool = _Pool()

    def generate(round_index: int):
        seeds = max(5, want // 4) * (round_index + 1)
        by_size = qgen.complex_queries(graph, seeds=seeds, seed=seed)
        # size-major order keeps the 3..7-pattern spread in any prefix
        texts = [
            by_size[n][i] for i in range(seeds) for n in sorted(by_size)
        ]
        if round_index:
            texts = [r for t in texts for r in _rotations(t)]
        return texts

    return _fill(pool, want, generate)


def _cold_reads(graph, reads: int, seed: int):
    """``reads`` all-distinct queries, selection : join : complex = 6:3:1,
    in a seeded order."""
    n_complex = reads // 10
    n_join = reads * 3 // 10
    n_sel = reads - n_join - n_complex
    queries = (
        [("sel", t) for t in selection_pool(graph, n_sel, seed)]
        + [("join", t) for t in join_pool(graph, n_join, seed + 1)]
        + [("complex", t) for t in complex_pool(graph, n_complex, seed + 2)]
    )
    random.Random(seed + 3).shuffle(queries)
    return queries


def _bind_subjects(texts: list[str], graph, seed: int) -> list[str]:
    """Turn ``?s``-joined queries into by-example lookups: ``?s`` becomes
    one concrete subject that has every predicate (and constant object)
    the query names.  A text no subject fits stays as it is."""
    facts: dict[str, dict[str, set[str]]] = {}
    for triple in graph.triples():
        facts.setdefault(triple.subject, {}).setdefault(
            triple.predicate, set()).add(triple.object)
    rng = random.Random(seed)
    out = []
    for text in texts:
        wanted = [
            (p.predicate.value,
             p.object.value if isinstance(p.object, TermConst) else None)
            for p in parse(text).patterns
        ]
        fitting = sorted(
            subject for subject, by_predicate in facts.items()
            if all(predicate in by_predicate
                   and (obj is None or obj in by_predicate[predicate])
                   for predicate, obj in wanted)
        )
        if fitting:
            text = text.replace("SELECT ?s ", "SELECT ").replace(
                "?s ", rng.choice(fitting) + " ")
        out.append(text)
    return out


def _fresh_insert(serial: int, chronon: int) -> tuple:
    return ("insert", f"bench_s_{serial}", BENCH_PREDICATE,
            f"bench_o_{serial % 7}", chronon)


# --------------------------------------------------------------------------
# The four workloads


def engine_fig9_warm(seed: int, scale: Scale) -> Workload:
    """Paper §7.3 mix (40 selection : 20 join : 25 complex, here three
    times over with distinct queries), one untimed pass then timed
    passes; twelve inserts on fresh subjects after each timed pass keep the
    update class present without reaching the 256-update statistics
    refresh."""
    graph = wikipedia.generate(scale.triples, seed=seed).graph
    mix = 1 if scale.smoke else FIG9_MIX
    queries = (
        [("sel", t) for t in selection_pool(graph, 40 * mix, seed)]
        + [("join", t) for t in join_pool(graph, 20 * mix, seed + 1)]
        + [("complex", t) for t in complex_pool(graph, 25 * mix, seed + 2)]
    )
    one_pass = [("q", index) for index in range(len(queries))]
    passes = min(scale.count(FIG9_PASSES_PER_S, 2), FIG9_MAX_PASSES)
    ops = list(one_pass)
    per_pass = FIG9_UPDATES_PER_PASS
    for number in range(passes):
        ops.extend(one_pass)
        ops.extend(
            _fresh_insert(number * per_pass + k, UPDATE_EPOCH + number)
            for k in range(per_pass)
        )
    return Workload("engine_fig9_warm", seed, scale, graph, queries, ops,
                    warmup=len(one_pass))


def maintain_history(seed: int, scale: Scale, events: int):
    """Split a longer generated history into a bulk-loaded base (its first
    ``scale.triples`` triples by transaction time) and the change events
    that follow, in transaction-time order."""
    history = scale.triples + int(events / 1.7) + 200
    full = wikipedia.generate(history, seed=seed).graph
    decode = full.dictionary.decode
    triples = sorted(
        ((t.period.start, t.period.end, decode(t.subject),
          decode(t.predicate), decode(t.object)) for t in full),
        key=lambda row: row[0],
    )
    cut = triples[min(scale.triples, len(triples)) - 1][0]
    base = TemporalGraph()
    stream = []
    for serial, (start, end, s, p, o) in enumerate(triples):
        if start <= cut:
            base.add(s, p, o, start, end if end <= cut else NOW)
        else:
            stream.append((start, 1, serial, ("insert", s, p, o, start)))
        if cut < end < NOW:
            # deletes sort before inserts at one chronon, so a value can
            # be replaced by an equal one within a day
            stream.append((end, 0, serial, ("delete", s, p, o, end)))
    stream.sort(key=lambda item: item[:3])
    if len(stream) < events:
        raise ValueError(f"history yields {len(stream)} events < {events}")
    return base, [item[3] for item in stream[:events]]


def maintain_events(scale: Scale) -> int:
    return scale.count(MAINTAIN_EVENTS_PER_S, 400)


def engine_maintain(seed: int, scale: Scale) -> Workload:
    """Bulk-load the base, stream the change events, probe with a fixed
    query set (40 each of selections, joins and stars) eight times along
    the way.

    The joins and stars are by-example here — ``?s`` bound to one subject
    that is being edited — the paper's infobox-history lookup.  This
    engine has no optimizer, so a free ``?s`` star costs up to 30 ms, the
    window could afford four per probe, and their median followed one
    seed's predicate volumes (68 % spread over ten seeds)."""
    events = maintain_events(scale)
    graph, stream = maintain_history(seed, scale, events)
    per_class = 4 if scale.smoke else 40
    joins = _bind_subjects(join_pool(graph, per_class, seed + 1), graph, seed)
    stars = _bind_subjects(
        complex_pool(graph, per_class, seed + 2), graph, seed + 1)
    queries = (
        [("sel", t) for t in selection_pool(graph, per_class, seed)]
        + [("join", t) for t in joins]
        + [("complex", t) for t in stars]
    )
    probe = [("q", index) for index in range(len(queries))]
    probes = 2 if scale.smoke else 8
    every = events // probes
    ops: list[tuple] = []
    for index, event in enumerate(stream, start=1):
        ops.append(event)
        if index % every == 0 and index // every <= probes:
            ops.extend(probe)
    return Workload("engine_maintain", seed, scale, graph, queries, ops)


def serve_http_mix(seed: int, scale: Scale) -> Workload:
    """60 % round-robin over 16 hot selections, 36 % all-distinct cold
    queries (6:3:1), 272 updates as 17 bursts of 16 on one connection."""
    graph = wikipedia.generate(scale.triples, seed=seed).graph
    requests = scale.count(SERVE_REQUESTS_PER_S, 200)
    # 17 bursts of 16 cross the 256-update statistics refresh once
    bursts = 17 if requests >= 1000 else 1
    n_update = bursts * 16
    n_cold = requests * 36 // 100
    n_hot = requests - n_cold - n_update
    hot = [("sel", t) for t in selection_pool(graph, 16, seed + 7)]
    cold = _cold_reads(graph, n_cold, seed)
    hot_texts = {normalize_query(t) for _, t in hot}
    cold = [q for q in cold if normalize_query(q[1]) not in hot_texts]
    queries = hot + cold
    reads = [("q", i % 16) for i in range(n_hot)]
    reads += [("q", 16 + i) for i in range(len(cold))]
    random.Random(seed + 4).shuffle(reads)
    ops: list[tuple] = []
    lanes: list[int] = []
    # reads follow the last burst, so the statistics refresh the writes
    # trigger (256 updates) stalls a request inside the timed window
    gap = len(reads) // (bursts + 1)
    serial = 0
    for index, read in enumerate(reads):
        ops.append(read)
        lanes.append(index % 2)
        if (index + 1) % gap == 0 and serial < n_update:
            burst = serial // 16
            for _ in range(16):
                ops.append(_fresh_insert(serial, UPDATE_EPOCH + burst))
                lanes.append(0)
                serial += 1
    return Workload("serve_http_mix", seed, scale, graph, queries, ops,
                    lanes=lanes)


def cluster_2shard_cold(seed: int, scale: Scale) -> Workload:
    """All-distinct cold queries 6:3:1 through a 2-shard ClusterStore,
    every 15th op an insert (under the 256-update refresh on every
    shard)."""
    graph = wikipedia.generate(scale.triples, seed=seed).graph
    total = scale.count(CLUSTER_OPS_PER_S, 150)
    n_update = total // 15
    queries = _cold_reads(graph, total - n_update, seed)
    ops: list[tuple] = []
    serial = 0
    for index in range(len(queries)):
        ops.append(("q", index))
        if len(ops) % 15 == 14 and serial < n_update:
            ops.append(_fresh_insert(serial, UPDATE_EPOCH + serial // 16))
            serial += 1
    return Workload("cluster_2shard_cold", seed, scale, graph, queries, ops)


BUILDERS = {
    "engine_fig9_warm": engine_fig9_warm,
    "engine_maintain": engine_maintain,
    "serve_http_mix": serve_http_mix,
    "cluster_2shard_cold": cluster_2shard_cold,
}

WHY = {
    "engine_fig9_warm": (
        "Fig. 9 in-process: every timed query is a plan-cache hit, so mvbt "
        "scan/join and engine execute do the work; bypass arm for any "
        "parse/plan/cache/RPC change"
    ),
    "engine_maintain": (
        "Fig. 10(c)/Table 1: streams insert/delete events through mvbt.tree "
        "and mvbt.compression, so a read-side gain that taxes writes (or "
        "the reverse) shows"
    ),
    "serve_http_mix": (
        "the served product over HTTP: result-cache hits between write "
        "bursts, cold parse+plan past both caches, WAL group commit, one "
        "statistics-refresh stall"
    ),
    "cluster_2shard_cold": (
        "isolates the RPC tax of a 2-shard ClusterStore on the single-shard "
        "fast path and scatter-gather; no HTTP, so a server change predicts "
        "no movement"
    ),
}
