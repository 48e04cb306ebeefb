"""SPARQLT query workload generators (paper Section 7.3).

Three query sets per dataset, mirroring the paper's experiment design:

* **selection** — single-pattern temporal selections (Examples 1-3 shapes);
* **join** — two-pattern temporal joins (Example 4 shape);
* **complex** — 25 queries built from 5 seed queries of 3 patterns each,
  incrementally extended one pattern at a time up to 7 patterns.

Queries are anchored to facts actually present in the graph so result sets
are non-trivial, and are returned as SPARQLT text.
"""

from __future__ import annotations

import random
from collections import defaultdict

from ..model.graph import TemporalGraph
from ..model.time import chronon_to_date, year_of


def _subject_predicates(graph: TemporalGraph) -> dict[int, list[int]]:
    """Subject id -> distinct predicate ids (in first-seen order)."""
    out: dict[int, list[int]] = defaultdict(list)
    for sid, pid, _, _, _ in graph.encoded_rows():
        preds = out[sid]
        if pid not in preds:
            preds.append(pid)
    return out


def _sample_year(graph: TemporalGraph, rng: random.Random) -> int:
    """The start year of a random fact among the first 5 000, drawn as
    ``rng.choice`` over that prefix would draw it, without copying it."""
    rows = graph.encoded_rows()
    return year_of(rows[rng.randrange(min(len(rows), 5000))][3])


def _date_str(chronon: int) -> str:
    return chronon_to_date(chronon).strftime("%Y-%m-%d")


def selection_queries(
    graph: TemporalGraph, count: int = 10, seed: int = 1
) -> list[str]:
    """Single-pattern temporal selection queries."""
    rng = random.Random(seed)
    rows = graph.encoded_rows()
    decode = graph.dictionary.decode
    queries: list[str] = []
    shapes = ["when", "year", "before", "snapshot", "predicate"]
    while len(queries) < count:
        sid, pid, oid, start, _ = rng.choice(rows)
        s = decode(sid)
        p = decode(pid)
        o = decode(oid)
        year = year_of(start)
        shape = shapes[len(queries) % len(shapes)]
        if shape == "when":
            queries.append(f"SELECT ?t {{{s} {p} {o} ?t}}")
        elif shape == "year":
            queries.append(
                f"SELECT ?o {{{s} {p} ?o ?t . FILTER(YEAR(?t) = {year})}}"
            )
        elif shape == "before":
            cutoff = _date_str(start + 200)
            queries.append(
                f"SELECT ?o ?t {{{s} {p} ?o ?t . FILTER(?t <= {cutoff})}}"
            )
        elif shape == "snapshot":
            when = _date_str(start)
            queries.append(f"SELECT ?o {{{s} {p} ?o {when}}}")
        else:  # predicate-bound pattern (P / PT)
            queries.append(
                f"SELECT ?s ?o {{?s {p} ?o ?t . FILTER(YEAR(?t) = {year})}}"
            )
    return queries


def join_queries(
    graph: TemporalGraph, count: int = 10, seed: int = 2
) -> list[str]:
    """Two-pattern temporal join queries (Example 4 shape)."""
    rng = random.Random(seed)
    decode = graph.dictionary.decode
    by_subject = _subject_predicates(graph)
    rich = [s for s, preds in by_subject.items() if len(preds) >= 2]
    queries: list[str] = []
    anchored = True
    while len(queries) < count and rich:
        subject = rng.choice(rich)
        p1, p2 = rng.sample(by_subject[subject], 2)
        p1n, p2n = decode(p1), decode(p2)
        if anchored:
            # Anchor one pattern on a constant object, as in Example 4.
            obj = decode(next(
                row[2] for row in graph.encoded_rows()
                if row[0] == subject and row[1] == p1
            ))
            queries.append(
                f"SELECT ?s ?v ?t {{?s {p2n} ?v ?t . ?s {p1n} {obj} ?t}}"
            )
        else:
            year = _sample_year(graph, rng)
            queries.append(
                f"SELECT ?s ?v1 ?v2 {{?s {p1n} ?v1 ?t . ?s {p2n} ?v2 ?t . "
                f"FILTER(YEAR(?t) = {year})}}"
            )
        anchored = not anchored
    return queries


def complex_queries(
    graph: TemporalGraph,
    seeds: int = 5,
    max_patterns: int = 7,
    seed: int = 3,
) -> dict[int, list[str]]:
    """The paper's complex-query construction.

    Returns ``{pattern_count: [queries]}`` for pattern counts 3..max:
    ``seeds`` queries of 3 patterns are generated, then each is extended one
    pattern at a time (Section 7.3).
    """
    rng = random.Random(seed)
    decode = graph.dictionary.decode
    by_subject = _subject_predicates(graph)
    rich = [
        s for s, preds in by_subject.items() if len(preds) >= max_patterns
    ]
    if not rich:
        # Fall back to the richest subjects available.
        rich = sorted(
            by_subject, key=lambda s: len(by_subject[s]), reverse=True
        )[: seeds * 2]
    out: dict[int, list[str]] = {n: [] for n in range(3, max_patterns + 1)}
    for index in range(seeds):
        subject = rich[index % len(rich)]
        predicates = by_subject[subject][:max_patterns]
        if len(predicates) < max_patterns:
            predicates = (
                predicates * ((max_patterns // len(predicates)) + 1)
            )[:max_patterns]
        year = year_of(next(
            row[3] for row in graph.encoded_rows() if row[0] == subject
        ))
        for n in range(3, max_patterns + 1):
            patterns = " . ".join(
                f"?s {decode(p)} ?v{i} ?t"
                for i, p in enumerate(predicates[:n])
            )
            select = " ".join(f"?v{i}" for i in range(n))
            out[n].append(
                f"SELECT ?s {select} {{{patterns} . "
                f"FILTER(YEAR(?t) = {year})}}"
            )
    return out
