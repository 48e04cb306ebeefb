"""Subject-and-object patterns against a replay of the raw change log.

An SO pattern (``{s ?p o ?t}``) has no key order of its own: the engine
scans SPO's subject prefix and compares the object inline.  These tests
hold that path to a reference that knows nothing of the engine's trees:
every insert and delete goes to a plain list of fact intervals as well,
and each query is answered from that list by brute force (match, group,
coalesce, intersect).  The shapes: a bare SO pattern, one at a constant
time, one under ``YEAR(?t)``, one whose subject is also its object, two
SO patterns sharing ``?p`` and ``?t``, and an SO pattern joined on ``?p``
to an object pattern.  Subjects are asked for objects they hold under
several predicates, under one, and under none; after a load, and again
after insert and delete streams on capacity-8 packed trees, which version
split their leaves.
"""

import datetime
import random

import pytest

from repro.engine import RDFTX
from repro.model import NOW, TemporalGraph
from repro.optimizer import Optimizer
from tests.test_mvbt_compression import SMALL

SUBJECTS = [f"s{i}" for i in range(8)]
PREDICATES = [f"p{i}" for i in range(5)]
#: Objects include two subjects, so some facts point back at their subject.
OBJECTS = [f"o{i}" for i in range(6)] + ["s1", "s2"]
#: 1997-05-19: the streams below span several calendar years from here.
FIRST_CHRONON = 10_000


class ChangeLog:
    """The history as the updates wrote it: closed intervals and the
    start of every live fact."""

    def __init__(self):
        self.closed: list[tuple[str, str, str, int, int]] = []
        self.live: dict[tuple[str, str, str], int] = {}

    def insert(self, fact, time):
        assert fact not in self.live
        self.live[fact] = time

    def delete(self, fact, time):
        self.closed.append((*fact, self.live.pop(fact), time))

    def facts(self):
        return self.closed + [(*fact, start, NOW)
                              for fact, start in self.live.items()]


def random_events(rng, log, time, count):
    """``count`` updates at rising chronons, several per chronon, applied
    to ``log``; yields ``(op, fact, time)``.  Deletes end facts started
    before the current chronon; inserts start new facts or restart ended
    ones, so a fact can hold several intervals."""
    ended = sorted({row[:3] for row in log.closed})
    for _ in range(count):
        time += rng.choice((0, 0, 1, 5, 30, 90))
        ripe = sorted(f for f, start in log.live.items() if start < time)
        if ripe and rng.random() < 0.4:
            fact = rng.choice(ripe)
            log.delete(fact, time)
            ended.append(fact)
            yield "delete", fact, time
            continue
        fact = None
        if ended and rng.random() < 0.3:
            fact = rng.choice(ended)
        if fact is None or fact in log.live:
            fact = (rng.choice(SUBJECTS), rng.choice(PREDICATES),
                    rng.choice(OBJECTS))
        if fact in log.live:
            continue
        log.insert(fact, time)
        yield "insert", fact, time


# ----------------------------------------------------------- the reference


def coalesce(intervals):
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return tuple((start, end) for start, end in merged)


def intersect(left, right):
    return coalesce(
        (max(a, c), min(b, d))
        for a, b in left for c, d in right if max(a, c) < min(b, d)
    )


def year_window(year):
    epoch = datetime.date(1970, 1, 1)
    return ((datetime.date(year, 1, 1) - epoch).days,
            (datetime.date(year + 1, 1, 1) - epoch).days)


def match(facts, pattern):
    """Rows of one quad pattern: ``(s, p, o, time)``, each a constant
    string or a ``?name``; the time may also be an int chronon."""
    *terms, time = pattern
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for *values, start, end in facts:
        binding: dict[str, str] = {}
        for term, value in zip(terms, values):
            if not term.startswith("?"):
                if term != value:
                    break
            elif binding.setdefault(term[1:], value) != value:
                break
        else:
            if isinstance(time, int):
                if not start <= time < end:
                    continue
                start, end = time, time + 1
            groups.setdefault(tuple(sorted(binding.items())), []).append(
                (start, end))
    rows = []
    for binding, intervals in groups.items():
        row = dict(binding)
        if isinstance(time, str):
            row[time[1:]] = coalesce(intervals)
        rows.append(row)
    return rows


def reference_answer(facts, patterns, year_of=None):
    """Join the patterns' rows by nested loops: shared terms must agree,
    shared times intersect.  ``year_of`` = ``(var, year)`` restricts that
    temporal variable to the calendar year."""
    rows = [{}]
    times = {p[3][1:] for p in patterns if isinstance(p[3], str)}
    for pattern in patterns:
        joined = []
        for left in rows:
            for right in match(facts, pattern):
                merged = dict(left)
                for name, value in right.items():
                    if name not in merged:
                        merged[name] = value
                    elif name in times:
                        merged[name] = intersect(merged[name], value)
                        if not merged[name]:
                            break
                    elif merged[name] != value:
                        break
                else:
                    joined.append(merged)
        rows = joined
    if year_of is not None:
        name, year = year_of
        window = (year_window(year),)
        rows = [{**row, name: intersect(row[name], window)} for row in rows]
        rows = [row for row in rows if row[name]]
    return sorted(sorted(row.items()) for row in rows)


def engine_answer(engine, text):
    out = []
    for row in engine.query(text).rows:
        out.append(sorted(
            (name, value if isinstance(value, str)
             else tuple((p.start, p.end) for p in value.periods))
            for name, value in row.items()
        ))
    return sorted(out)


# -------------------------------------------------------------- the shapes


def date_text(chronon):
    return (datetime.date(1970, 1, 1)
            + datetime.timedelta(days=chronon)).isoformat()


def so_pairs(facts):
    """Subject-object pairs by how many predicates link them: several,
    one, none (both terms known, never together)."""
    links: dict[tuple[str, str], set[str]] = {}
    for s, p, o, _, _ in facts:
        links.setdefault((s, o), set()).add(p)
    subjects = sorted({row[0] for row in facts})
    objects = sorted({row[2] for row in facts})
    several = sorted(pair for pair, ps in links.items() if len(ps) > 1)
    one = sorted(pair for pair, ps in links.items() if len(ps) == 1)
    none = sorted((s, o) for s in subjects for o in objects
                  if (s, o) not in links)
    return several, one, none


def shapes(rng, facts, s, o):
    """``(text, patterns, year_of)`` for every shape on the pair."""
    chronons = [start for *_, start, _ in facts] + [FIRST_CHRONON - 1]
    at = rng.choice(chronons) + rng.choice((0, 0, 1, 10))
    year = datetime.date.fromordinal(
        datetime.date(1970, 1, 1).toordinal() + rng.choice(chronons)).year
    o2 = rng.choice(OBJECTS)
    return [
        (f"SELECT ?p ?t {{{s} ?p {o} ?t}}",
         [(s, "?p", o, "?t")], None),
        (f"SELECT ?p {{{s} ?p {o} {date_text(at)}}}",
         [(s, "?p", o, at)], None),
        (f"SELECT ?p ?t {{{s} ?p {o} ?t . FILTER(YEAR(?t) = {year})}}",
         [(s, "?p", o, "?t")], ("t", year)),
        (f"SELECT ?p ?t {{{s} ?p {s} ?t}}",
         [(s, "?p", s, "?t")], None),
        (f"SELECT ?p ?t {{{s} ?p {o} ?t . {s} ?p {o2} ?t}}",
         [(s, "?p", o, "?t"), (s, "?p", o2, "?t")], None),
        (f"SELECT ?p ?x ?t ?u {{{s} ?p {o} ?t . ?x ?p {o} ?u}}",
         [(s, "?p", o, "?t"), ("?x", "?p", o, "?u")], None),
    ]


def check_pairs(engine, log, rng, seen):
    facts = log.facts()
    for kind, pairs in zip(("several", "one", "none"), so_pairs(facts)):
        for s, o in rng.sample(pairs, min(4, len(pairs))):
            for text, patterns, year_of in shapes(rng, facts, s, o):
                expected = reference_answer(facts, patterns, year_of)
                assert engine_answer(engine, text) == expected, text
                seen.add((kind, bool(expected)))


@pytest.mark.parametrize("optimizer", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_subject_object_shapes_match_the_change_log(seed, optimizer):
    rng = random.Random(seed)
    log = ChangeLog()
    for _ in random_events(rng, log, FIRST_CHRONON, 160):
        pass
    graph = TemporalGraph()
    for row in log.facts():
        graph.add(*row)
    engine = RDFTX(config=SMALL,
                   optimizer=Optimizer() if optimizer else None)
    engine.load(graph)
    seen: set[tuple[str, bool]] = set()
    check_pairs(engine, log, rng, seen)
    spo = engine.indexes["spo"]
    loaded = {id(leaf) for leaf in spo.leaf_nodes()}
    for _ in range(3):
        for op, fact, time in random_events(rng, log, engine.horizon, 120):
            getattr(engine, op)(*fact, time)
        check_pairs(engine, log, rng, seen)
    # The streams version split packed leaves, and every kind of pair was
    # asked, with answers and without.
    born = [leaf for leaf in spo.leaf_nodes() if id(leaf) not in loaded]
    assert born and all(leaf.is_compressed for leaf in born)
    assert {("several", True), ("one", True), ("none", False)} <= seen
    engine.check_invariants()
