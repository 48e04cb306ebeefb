"""The three MVBTs are the only copy of the history.

``MVBT.live_start`` / ``MVBT.history`` / ``RDFTX.history_rows`` answer what
a maintained side copy of the data used to: is this fact live (and since
when), and what is every interval ever recorded.  The reference they are
held to here is the side copy itself, kept *in the test*.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import RDFTX
from repro.model import TemporalGraph
from repro.model.graph import raw_size
from repro.model.time import NOW, Period
from repro.model.triple import EncodedTriple
from repro.mvbt import MVBT
from repro.mvsbt.histogram import TemporalHistogram
from repro.optimizer import Optimizer
from repro.service.snapshot import restore_engine, serialize_engine
from tests.test_mvbt_compression import SMALL, update_streams


class ReferenceHistory:
    """What the engine used to maintain beside its indices: one row per
    interval, the live ones found by key, a fact ended at (or before) its
    own start dropped entirely."""

    def __init__(self):
        self.closed = []   # (s, p, o, start, end)
        self.live = {}     # (s, p, o) -> start
        self.seen = set()

    def insert(self, fact, time):
        assert fact not in self.live
        self.live[fact] = time
        self.seen.add(fact)

    def delete(self, fact, time):
        start = self.live.pop(fact)
        if time > start:
            self.closed.append((*fact, start, time))

    def rows(self):
        return sorted(
            self.closed
            + [(*fact, start, NOW) for fact, start in self.live.items()]
        )


def terms(key):
    return f"s{key[0]}", f"p{key[1]}", f"o{key[2]}"


def decoded_rows(engine):
    decode = engine.dictionary.decode
    return sorted(
        (decode(s), decode(p), decode(o), start, end)
        for s, p, o, start, end in engine.history_rows()
    )


def assert_matches(engine, reference):
    rows = engine.history_rows()
    # The pinned row order: SPO key, then start.
    assert rows == sorted(rows)
    assert decoded_rows(engine) == reference.rows()
    spo = engine.indexes["spo"]
    for fact in reference.seen:
        since = reference.live.get(fact)
        assert engine.live_since(*fact) == since
        ids = tuple(engine.dictionary.lookup(term) for term in fact)
        assert spo.live_start(ids) == since
    assert engine.live_since("s0", "p0", "never-seen") is None
    # Every index holds the same history under its own key order.
    assert engine.indexes.keys() == {"spo", "pos", "ops"}
    plain = sorted(spo.history())
    for name in ("pos", "ops"):
        back = ["spo".index(slot) for slot in name]
        assert sorted(
            (tuple(key[back.index(i)] for i in range(3)), start, end)
            for key, start, end in engine.indexes[name].history()
        ) == plain


@settings(max_examples=60, deadline=None)
@given(update_streams(), st.booleans())
def test_history_and_live_start_match_a_maintained_copy(stream, packed):
    """Capacity-8 trees, so the streams split, merge and re-split leaves
    and roots; a snapshot round trip part-way; a fact ended at its own
    start chronon at the end."""
    events, restore_at = stream
    engine = RDFTX(config=SMALL)
    engine.load(TemporalGraph(), compress=packed)
    reference = ReferenceHistory()
    for index, (op, key, time) in enumerate(events):
        if index == restore_at:
            engine = restore_engine(serialize_engine(engine))
            assert_matches(engine, reference)
        fact = terms(key)
        getattr(engine, op)(*fact, time)
        getattr(reference, op)(fact, time)
    assert_matches(engine, reference)
    last = engine.horizon
    for op in ("insert", "delete"):
        getattr(engine, op)("s-blip", "p0", "o0", last)
        getattr(reference, op)(("s-blip", "p0", "o0"), last)
    assert_matches(engine, reference)
    engine.check_invariants()
    assert all(tree.is_packed is packed for tree in engine.indexes.values())


def small_history():
    graph = TemporalGraph()
    for i in range(120):
        end = NOW if i % 4 else 40 + i
        graph.add(f"s{i % 30}", f"p{i % 7}", f"o{i}", 1 + i % 11, end)
    return graph


def model_objects():
    gc.collect()
    return sum(
        type(obj) in (EncodedTriple, Period) for obj in gc.get_objects()
    )


def test_updates_build_no_model_objects():
    """An update goes into the three trees and nowhere else: no
    ``EncodedTriple`` or ``Period`` survives it."""
    graph = small_history()
    engine = RDFTX.from_graph(graph)
    before = model_objects()
    for i in range(1000):
        engine.insert(f"fresh{i}", f"p{i % 7}", "o", 200 + i)
        if i % 3 == 0:
            engine.delete(f"fresh{i}", f"p{i % 7}", "o", 201 + i)
    assert model_objects() <= before
    assert len(engine.history_rows()) == len(graph) + 1000


def fingerprint(histogram):
    """Schema, side tables, sizes and every point estimate the optimizer
    can ask for, over a grid of windows."""
    windows = [(0, NOW), (5, 6), (30, 90), (150, 151), (400, NOW)]
    charsets = histogram.charsets
    return (
        histogram.cm, histogram.lm, histogram.total_triples,
        histogram.core_sizeof(), histogram.sizeof(),
        charsets.sets, charsets.of_subject, charsets.with_predicate,
        dict(histogram.object_frequency),
        dict(histogram.predicate_frequency),
        histogram.distinct_objects_of,
        [
            (histogram.subjects_alive(cs, t1, t2),
             histogram.triples_alive(t1, t2),
             [histogram.occurrences(cs, pid, t1, t2)
              for pid in sorted(charsets.sets[cs])])
            for cs in range(len(charsets)) for t1, t2 in windows
        ],
    )


def test_refreshed_histogram_is_the_build_over_history_rows():
    engine = RDFTX.from_graph(small_history(), optimizer=Optimizer())
    loaded = engine.optimizer.statistics.histogram
    for i in range(300):
        engine.insert(f"s{i % 40}", f"p{i % 9}", f"new{i}", 200 + i)
        if i % 2:
            engine.delete(f"s{i % 40}", f"p{i % 9}", f"new{i}", 200 + i + 1)
    assert engine.refresh_statistics() is True
    refreshed = engine.optimizer.statistics.histogram
    assert refreshed is not loaded
    expected = TemporalHistogram(cm=engine.optimizer.cm,
                                 lm=engine.optimizer.lm)
    rows = engine.history_rows()
    expected.build_rows(rows, raw_size(engine.dictionary, rows))
    assert fingerprint(refreshed) == fingerprint(expected)
    assert fingerprint(refreshed) != fingerprint(loaded)
    assert engine.optimizer.statistics.dictionary is engine.dictionary


def test_history_reaches_a_root_replaced_within_its_own_version():
    """A root split twice at one chronon drops its first successor from
    the root registry; an entry ended in it in between is reachable only
    over a backward link — and is history all the same."""
    tree = MVBT(SMALL)
    keys = [(i, 0, 0) for i in range(12)]
    for i in range(8):
        tree.insert(keys[i], 1 + i)
    tree.delete(keys[0], 9)
    tree.delete(keys[1], 9)
    tree.insert(keys[8], 10)      # overflow: the root leaf splits at 10
    first_successor = tree.live_root
    tree.delete(keys[2], 10)      # ended in that successor ...
    tree.insert(keys[9], 10)
    tree.insert(keys[10], 10)     # ... which splits at 10 again
    assert first_successor not in list(tree.iter_nodes())
    assert sorted(tree.history()) == sorted(
        [(keys[0], 1, 9), (keys[1], 2, 9), (keys[2], 3, 10)]
        + [(keys[i], 1 + i, NOW) for i in range(3, 8)]
        + [(keys[8], 10, NOW), (keys[9], 10, NOW), (keys[10], 10, NOW)]
    )
