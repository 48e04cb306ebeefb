"""Integer terms against the brute-force reference evaluator.

A canonical decimal integer is its own term id (``repro.model.dictionary``);
every other spelling of a number (``007``, ``-0``, ``+5``, ``１２``, one past
the inline range) is a table term.  These tests put both kinds in every
position of a fact — numeric subjects, a numeric predicate, numeric
objects, one number that is both a subject and an object — and hold the
engine's answers to ``tests.test_engine_reference.brute_force``, optimizer
off and on, after a load and after insert/delete streams on capacity-8
packed trees.  The shapes: a numeric constant as subject, as object and
as both; a numeric predicate alone and in a join (its id keys the
histogram's occurrence statistics); ``FILTER`` comparisons on numeric
objects; a join on a numeric object two patterns share; a number no fact
holds.  A 2-shard ``ClusterStore`` fed the same history must agree with
the engine.
"""

import random
import re

import pytest

from repro.cluster import ClusterStore
from repro.engine import RDFTX
from repro.model import NOW, TemporalGraph
from repro.model.dictionary import INLINE_BASE, INLINE_LIMIT
from repro.optimizer import Optimizer
from repro.sparqlt.parser import parse
from tests.test_engine_reference import brute_force
from tests.test_mvbt_compression import SMALL
from tests.test_subject_object_reference import ChangeLog

SUBJECTS = ["s0", "s1", "s2", "42", "-7", "0"]
PREDICATES = ["p0", "p1", "7", "-2"]
#: Inline integers (the range's ends among them), table-spelled numbers,
#: and two plain terms, one of them a subject.
OBJECTS = ["0", "-1", "5", "17", "42", str(INLINE_LIMIT - 1),
           str(-(INLINE_LIMIT - 1)), str(INLINE_LIMIT), "007", "-0", "+5",
           "１２", "o1", "s1"]
FIRST_CHRONON = 10_000


def literal(term):
    """``term`` as a query constant: bare when the lexer reads it back as
    itself, quoted otherwise."""
    if re.fullmatch(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*", term):
        return term
    return f'"{term}"'


def numeric(text):
    """How a FILTER comparison reads a term against a number, or ``None``
    when it cannot (the row is rejected): ASCII XSD integer, decimal and
    double numerals only, so ``+5`` and ``007`` are numbers and ``１２``
    is not."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        return int(text)
    if re.fullmatch(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?",
                    text):
        return float(text)
    return None


def random_events(rng, log, time, count):
    """``count`` updates at rising chronons, applied to ``log``."""
    for _ in range(count):
        time += rng.choice((0, 1, 4, 30))
        ripe = sorted(f for f, start in log.live.items() if start < time)
        if ripe and rng.random() < 0.4:
            fact = rng.choice(ripe)
            log.delete(fact, time)
            yield "delete", fact, time
            continue
        fact = (rng.choice(SUBJECTS), rng.choice(PREDICATES),
                rng.choice(OBJECTS))
        if fact in log.live:
            continue
        log.insert(fact, time)
        yield "insert", fact, time


def graph_of(log):
    graph = TemporalGraph()
    for row in log.facts():
        graph.add(*row)
    return graph


def queries(rng, log):
    """``(text, filter)`` pairs; ``filter`` = ``(var, test)`` keeps the
    reference rows whose ``var`` passes ``test``."""
    facts = log.facts()
    objects = sorted({row[2] for row in facts if numeric(row[2]) is not None})
    o = literal(rng.choice(objects))
    s = literal(rng.choice(["42", "-7", "0"]))
    return [
        (f"SELECT ?p ?o ?t {{{s} ?p ?o ?t}}", None),
        (f"SELECT ?s ?p ?t {{?s ?p {o} ?t}}", None),
        (f"SELECT ?s {{?s p0 {o} ?t}}", None),
        ("SELECT ?p ?t {42 ?p 17 ?t}", None),
        ('SELECT ?p ?o ?t {"-7" ?p ?o ?t}', None),
        ("SELECT ?s ?o ?t {?s 7 ?o ?t}", None),
        ('SELECT ?s ?o {?s "-2" ?o ?t}', None),
        ("SELECT ?s ?o ?x ?t {?s 7 ?o ?t . ?s p0 ?x ?t}", None),
        ("SELECT ?s ?o {?s p0 ?o ?t FILTER(?o > 10)}", ("o", lambda v: v > 10)),
        ("SELECT ?s ?p ?o {?s ?p ?o ?t FILTER(?o < 10)}",
         ("o", lambda v: v < 10)),
        ("SELECT ?s ?o {?s 7 ?o ?t FILTER(?o = 17)}", ("o", lambda v: v == 17)),
        ("SELECT ?a ?b ?o {?a p0 ?o ?t . ?b p1 ?o ?u}", None),
        ("SELECT ?a ?b ?o ?t {?a ?p ?o ?t . ?b 7 ?o ?t}", None),
        ("SELECT ?a ?b ?o {?a p0 ?o ?t . ?b ?q ?o ?u FILTER(?o >= 0)}",
         ("o", lambda v: v >= 0)),
        ("SELECT ?s ?p ?x ?t {?s ?p 42 ?t . 42 ?q ?x ?t}", None),
        ("SELECT ?s ?p {?s ?p 123456 ?t}", None),
    ]


def reference_rows(graph, text, horizon, keep):
    rows = brute_force(graph, parse(text), horizon)
    if keep is None:
        return rows
    name, test = keep
    return [row for row in rows
            if (value := numeric(dict(row)[name])) is not None
            and test(value)]


def engine_rows(store, text):
    result = store.query(text)
    return sorted(
        tuple((name, str(row.get(name))) for name in result.variables)
        for row in result.rows
    )


def check(engine, log, rng, answered):
    graph = graph_of(log)
    for text, keep in queries(rng, log):
        expected = reference_rows(graph, text, engine.horizon, keep)
        assert engine_rows(engine, text) == expected, text
        if expected:
            answered.add(text)


@pytest.mark.parametrize("optimizer", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_numeric_terms_match_the_brute_force(seed, optimizer):
    rng = random.Random(seed)
    log = ChangeLog()
    for _ in random_events(rng, log, FIRST_CHRONON, 160):
        pass
    engine = RDFTX(config=SMALL,
                   optimizer=Optimizer() if optimizer else None)
    engine.load(graph_of(log))
    lookup = engine.dictionary.lookup
    assert lookup("17") == INLINE_BASE + 17
    assert lookup("007") < INLINE_BASE - INLINE_LIMIT
    answered: set[str] = set()
    check(engine, log, rng, answered)
    for _ in range(3):
        for op, fact, time in random_events(rng, log, engine.horizon, 120):
            getattr(engine, op)(*fact, time)
        check(engine, log, rng, answered)
    engine.check_invariants()
    # Every shape but the absent number answered something at some point.
    assert len(answered) >= 12


def test_a_two_shard_cluster_agrees_with_the_engine(tmp_path):
    rng = random.Random(11)
    log = ChangeLog()
    for _ in random_events(rng, log, FIRST_CHRONON, 120):
        pass
    engine = RDFTX(optimizer=Optimizer())
    engine.load(graph_of(log))
    with ClusterStore(tmp_path / "clu", shards=2, fsync=False) as cluster:
        cluster.load_dataset(graph_of(log))
        for _ in range(2):
            for op, fact, time in random_events(rng, log, engine.horizon, 80):
                getattr(engine, op)(*fact, time)
                getattr(cluster, op)(*fact, time)
            answered = 0
            for text, _ in queries(rng, log):
                expected = engine_rows(engine, text)
                assert engine_rows(cluster, text) == expected, text
                answered += bool(expected)
            assert answered >= 10
