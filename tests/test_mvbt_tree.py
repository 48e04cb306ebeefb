"""Tests for the MVBT: structure changes, invariants, reference-model checks.

The reference model replays the same insert/delete stream into a plain list
of interval records; every query result from the MVBT, coalesced and
restricted to the query window, must equal the reference answer.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.time import MIN_TIME, NOW, Period, PeriodSet
from repro.mvbt import (
    DuplicateKeyError,
    MAX_KEY,
    MIN_KEY,
    MVBT,
    MVBTConfig,
    TimeOrderError,
    bulk_load,
    collect_validity,
    prefix_range,
    range_interval_scan,
)
from repro.mvbt.tree import replay
from repro.obs import metrics

SMALL = MVBTConfig(block_capacity=8, weak_min=2, epsilon=1)


def key(n: int) -> tuple:
    return (n, 0, 0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = MVBTConfig()
        assert cfg.strong_min < cfg.strong_max

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            MVBTConfig(block_capacity=4, weak_min=1, epsilon=1)

    def test_rejects_key_split_violation(self):
        with pytest.raises(ValueError):
            MVBTConfig(block_capacity=8, weak_min=4, epsilon=1)


class TestBasicOperations:
    def test_empty_tree(self):
        tree = MVBT(SMALL)
        assert tree.live_records == 0
        assert list(range_interval_scan(tree)) == []

    def test_single_insert(self):
        tree = MVBT(SMALL)
        tree.insert(key(5), 10)
        got = list(range_interval_scan(tree))
        assert got == [(key(5), Period(10, NOW), None)]
        assert tree.live_records == 1

    def test_insert_delete(self):
        tree = MVBT(SMALL)
        tree.insert(key(5), 10)
        tree.delete(key(5), 20)
        got = collect_validity(tree)
        assert got == {key(5): PeriodSet([Period(10, 20)])}
        assert tree.live_records == 0

    def test_duplicate_insert_raises(self):
        tree = MVBT(SMALL)
        tree.insert(key(5), 10)
        with pytest.raises(DuplicateKeyError):
            tree.insert(key(5), 15)

    def test_reinsert_after_delete(self):
        tree = MVBT(SMALL)
        tree.insert(key(5), 10)
        tree.delete(key(5), 20)
        tree.insert(key(5), 30)
        got = collect_validity(tree)
        assert got[key(5)] == PeriodSet([Period(10, 20), Period(30, NOW)])

    def test_delete_missing_raises(self):
        tree = MVBT(SMALL)
        with pytest.raises(KeyError):
            tree.delete(key(5), 10)

    def test_time_order_enforced(self):
        tree = MVBT(SMALL)
        tree.insert(key(5), 10)
        with pytest.raises(TimeOrderError):
            tree.insert(key(6), 9)

    def test_insert_interval(self):
        tree = MVBT(SMALL)
        tree.insert_interval(key(1), 5, 15)
        assert collect_validity(tree)[key(1)] == PeriodSet([Period(5, 15)])

    def test_payloads_flow_through(self):
        tree = MVBT(SMALL)
        tree.insert(key(3), 4, payload="budget")
        ((k, period, payload),) = list(range_interval_scan(tree))
        assert payload == "budget"


class TestStructureChanges:
    def test_version_and_key_splits(self):
        """Paper Figure 2(b): fill one leaf, watch it split."""
        tree = MVBT(SMALL)
        for i in range(30):
            tree.insert(key(i), i + 1)
        tree.check_invariants()
        assert not tree.live_root.is_leaf
        got = collect_validity(tree)
        assert set(got) == {key(i) for i in range(30)}
        for i in range(30):
            assert got[key(i)] == PeriodSet([Period(i + 1, NOW)])

    def test_merge_on_underflow(self):
        tree = MVBT(SMALL)
        for i in range(30):
            tree.insert(key(i), i + 1)
        for i in range(25):
            tree.delete(key(i), 100 + i)
        tree.check_invariants()
        live_now = collect_validity(tree, t1=200, t2=NOW)
        assert set(live_now) == {key(i) for i in range(25, 30)}

    def test_root_chain_grows(self):
        tree = MVBT(SMALL)
        for i in range(100):
            tree.insert(key(i), i + 1)
        assert len(tree._roots) > 1
        tree.check_invariants()

    def test_historical_query_after_splits(self):
        tree = MVBT(SMALL)
        for i in range(50):
            tree.insert(key(i), i + 1)
        # At time 10, keys 0..9 exist.
        early = collect_validity(tree, t1=10, t2=11)
        assert set(early) == {key(i) for i in range(10)}

    def test_delete_everything(self):
        tree = MVBT(SMALL)
        for i in range(20):
            tree.insert(key(i), i + 1)
        for i in range(20):
            tree.delete(key(i), 50 + i)
        tree.check_invariants()
        assert tree.live_records == 0
        assert collect_validity(tree, t1=100, t2=NOW) == {}
        # History is intact.
        assert len(collect_validity(tree)) == 20


class ReferenceModel:
    """Naive interval store used to validate MVBT query answers."""

    def __init__(self):
        self.records: list[tuple[tuple, int, int]] = []
        self.live: dict[tuple, int] = {}

    def insert(self, k, t):
        self.live[k] = t

    def delete(self, k, t):
        start = self.live.pop(k)
        self.records.append((k, start, t))

    def finished(self):
        done = list(self.records)
        done.extend((k, s, NOW) for k, s in self.live.items())
        return done

    def query(self, key_low, key_high, t1, t2):
        window = Period(t1, t2) if t1 < t2 else None
        out = {}
        for k, s, e in self.finished():
            if s >= e:
                # Inserted and deleted in the same chronon: the record is
                # annihilated (the MVBT entry has an empty lifetime).
                continue
            if not (key_low <= k < key_high):
                continue
            if not (s < t2 and t1 < e):
                continue
            out.setdefault(k, []).append(Period(s, e))
        return {
            k: PeriodSet(parts).restrict(window)
            for k, parts in out.items()
        }


def _run_scenario(ops, config, queries):
    tree = MVBT(config)
    ref = ReferenceModel()
    for op, k, t in ops:
        if op == "ins":
            tree.insert(k, t)
            ref.insert(k, t)
        else:
            tree.delete(k, t)
            ref.delete(k, t)
    tree.check_invariants()
    for key_low, key_high, t1, t2 in queries:
        got = {
            k: ps.restrict(Period(t1, t2))
            for k, ps in collect_validity(
                tree, key_low, key_high, t1, t2
            ).items()
        }
        got = {k: ps for k, ps in got.items() if not ps.is_empty}
        expected = ref.query(key_low, key_high, t1, t2)
        expected = {k: ps for k, ps in expected.items() if not ps.is_empty}
        assert got == expected, (key_low, key_high, t1, t2)


@st.composite
def op_streams(draw):
    """Monotone-time streams of inserts and deletes over a small key space."""
    n = draw(st.integers(min_value=1, max_value=120))
    ops = []
    live = set()
    time = 0
    for _ in range(n):
        time += draw(st.integers(min_value=0, max_value=3))
        k = key(draw(st.integers(min_value=0, max_value=25)))
        if k in live and draw(st.booleans()):
            ops.append(("del", k, time))
            live.discard(k)
        elif k not in live:
            ops.append(("ins", k, time))
            live.add(k)
    return ops


@settings(max_examples=60, deadline=None)
@given(op_streams())
def test_mvbt_matches_reference_model(ops):
    queries = [
        (MIN_KEY, MAX_KEY, MIN_TIME, NOW),
        (key(5), key(15), MIN_TIME, NOW),
        (MIN_KEY, MAX_KEY, 10, 40),
        (key(0), key(10), 20, 30),
        (key(20), key(26), 5, NOW),
    ]
    _run_scenario(ops, SMALL, queries)


@settings(max_examples=20, deadline=None)
@given(op_streams(), st.integers(min_value=10, max_value=20))
def test_mvbt_matches_reference_default_config(ops, block):
    config = MVBTConfig(block_capacity=block, weak_min=2, epsilon=2)
    queries = [(MIN_KEY, MAX_KEY, MIN_TIME, NOW), (key(3), key(22), 15, 35)]
    _run_scenario(ops, config, queries)


def test_large_random_workload_against_reference():
    rng = random.Random(42)
    tree = MVBT(MVBTConfig())
    ref = ReferenceModel()
    live = set()
    time = 0
    for _ in range(3000):
        time += rng.randint(0, 2)
        k = (rng.randint(0, 40), rng.randint(0, 5), rng.randint(0, 5))
        if k in live and rng.random() < 0.45:
            tree.delete(k, time)
            ref.delete(k, time)
            live.discard(k)
        elif k not in live:
            tree.insert(k, time)
            ref.insert(k, time)
            live.add(k)
    tree.check_invariants()
    for key_low, key_high, t1, t2 in [
        (MIN_KEY, MAX_KEY, MIN_TIME, NOW),
        ((10,), (30,), 100, 900),
        ((0,), (41,), time // 2, time // 2 + 1),
    ]:
        got = {
            k: ps.restrict(Period(t1, t2))
            for k, ps in collect_validity(tree, key_low, key_high, t1, t2).items()
        }
        got = {k: ps for k, ps in got.items() if not ps.is_empty}
        expected = ref.query(key_low, key_high, t1, t2)
        expected = {k: ps for k, ps in expected.items() if not ps.is_empty}
        assert got == expected


class TestBulkLoadAndPrefix:
    def test_bulk_load_intervals(self):
        tree = MVBT(SMALL)
        records = [
            (key(1), 5, 10),
            (key(2), 7, NOW),
            (key(1), 12, 20),
        ]
        bulk_load(tree, records)
        got = collect_validity(tree)
        assert got[key(1)] == PeriodSet([Period(5, 10), Period(12, 20)])
        assert got[key(2)] == PeriodSet([Period(7, NOW)])

    def test_bulk_load_back_to_back(self):
        """A value replaced in the same chronon (delete then insert)."""
        tree = MVBT(SMALL)
        bulk_load(tree, [(key(1), 5, 10), (key(1), 10, 20)])
        assert collect_validity(tree)[key(1)] == PeriodSet([Period(5, 20)])

    def test_prefix_range(self):
        tree = MVBT(SMALL)
        tree.insert((1, 2, 3), 5)
        tree.insert((1, 2, 9), 6)
        tree.insert((1, 3, 1), 7)
        low, high = prefix_range((1, 2))
        got = collect_validity(tree, low, high)
        assert set(got) == {(1, 2, 3), (1, 2, 9)}

    def test_scan_empty_ranges(self):
        tree = MVBT(SMALL)
        tree.insert(key(1), 5)
        assert list(range_interval_scan(tree, key(2), key(2))) == []
        assert list(range_interval_scan(tree, t1=10, t2=10)) == []


# --------------------------------------------------------------------------
# One mutation loop: ``replay`` applies every event, and ``insert``/``delete``
# are one-event calls into it, so the chunking of a history cannot matter.

_COUNTERS = ("inserts", "deletes", "version_splits", "key_splits", "merges")


def _history(n, pick):
    """A valid ``(time, kind, key)`` history of ``n`` steps on the small
    config, its choices made by ``pick(low, high)``: a filling half (key
    splits), a draining half (merges, root shrink), and same-chronon
    delete-then-insert replacements throughout."""
    events = []
    live: set = set()
    time = 1
    for i in range(n):
        time += pick(0, 2)
        if i >= n // 2 and live and pick(0, 3):
            ordered = sorted(live)
            k = ordered[pick(0, len(ordered) - 1)]
        else:
            k = key(pick(0, 40))
        if k in live:
            events.append((time, 1, k))
            live.discard(k)
            if pick(0, 4) == 0:
                events.append((time, 0, k))  # replaced within the chronon
                live.add(k)
        else:
            events.append((time, 0, k))
            live.add(k)
    return events


@st.composite
def histories(draw):
    n = draw(st.integers(min_value=1, max_value=160))
    return _history(n, lambda low, high: draw(st.integers(low, high)))


def _apply(tree, events, chunking, rng):
    """Apply ``events`` in one replay, one event per insert/delete call,
    or in random replay chunks."""
    if chunking == "one":
        replay(tree, events)
    elif chunking == "each":
        for time, kind, k in events:
            (tree.insert if kind == 0 else tree.delete)(k, time)
    else:
        at = 0
        while at < len(events):
            step = rng.randint(1, 12)
            replay(tree, events[at:at + step])
            at += step


def _build(events, chunking, rng, packed_after=None):
    """A tree holding ``events``; compressed after the first
    ``packed_after`` of them when that is not None."""
    tree = MVBT(SMALL)
    if packed_after is None:
        _apply(tree, events, chunking, rng)
        return tree
    _apply(tree, events[:packed_after], chunking, rng)
    tree.compress()
    _apply(tree, events[packed_after:], chunking, rng)
    return tree


def _state(tree):
    return (tree.dump_state(), tree.current_time, tree.live_records,
            tree.total_versions)


def _counts():
    return {name: metrics.counter(f"mvbt.tree.{name}").value
            for name in _COUNTERS}


@contextmanager
def _counting():
    """Metrics on inside (the suite may run under REPRO_OBS=0)."""
    previous = metrics.set_enabled(True)
    try:
        yield
    finally:
        metrics.set_enabled(previous)


@settings(max_examples=60, deadline=None)
@given(histories(), st.data())
def test_chunking_never_changes_the_tree(events, data):
    packed_after = data.draw(st.one_of(
        st.none(), st.integers(min_value=0, max_value=len(events))))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    expected = _state(_build(events, "one", rng, packed_after))
    for chunking in ("each", "chunks"):
        tree = _build(events, chunking, rng, packed_after)
        assert _state(tree) == expected, chunking
        tree.check_invariants()


def _rejected(events, data):
    """A rejected event and where it goes: ``(at, event, error)``."""
    at = data.draw(st.integers(min_value=0, max_value=len(events)))
    live: set = set()
    for _, kind, k in events[:at]:
        (live.add if kind == 0 else live.discard)(k)
    now = events[at - 1][0] if at else MIN_TIME
    choices = ["absent"]
    if at:
        choices.append("late")
    if live:
        choices.append("duplicate")
    kind = data.draw(st.sampled_from(choices))
    if kind == "late":
        return at, (now - 1, data.draw(st.integers(0, 1)), key(0)), TimeOrderError
    if kind == "duplicate":
        return at, (now, 0, data.draw(st.sampled_from(sorted(live)))), DuplicateKeyError
    absent = [key(n) for n in range(42) if key(n) not in live]
    return at, (now, 1, data.draw(st.sampled_from(absent))), KeyError


@settings(max_examples=60, deadline=None)
@given(histories(), st.data())
def test_a_rejected_event_changes_nothing(events, data):
    """The history with one bad event spliced in raises at that event,
    whatever the chunking, and leaves the tree (and the counters) as the
    event before it left them."""
    at, bad, error = _rejected(events, data)
    packed = data.draw(st.booleans())
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    before = _build(events[:at], "one", rng, 0 if packed else None)
    expected = _state(before)
    spliced = events[:at] + [bad] + events[at:]
    with _counting():
        for chunking in ("one", "each", "chunks"):
            tree = MVBT(SMALL)
            if packed:
                tree.compress()
            counts = _counts()
            with pytest.raises(error):
                _apply(tree, spliced, chunking, rng)
            assert _state(tree) == expected, chunking
            delta = {name: value - counts[name]
                     for name, value in _counts().items()}
            assert delta["inserts"] == sum(
                1 for _, kind, _ in events[:at] if kind == 0)
            assert delta["deletes"] == sum(
                1 for _, kind, _ in events[:at] if kind == 1)


@settings(max_examples=40, deadline=None)
@given(histories(), st.data())
def test_counters_match_the_applied_events(events, data):
    """Under REPRO_OBS=1 the insert/delete counters move by the events
    applied and the structure counters by the same amount, chunked or not
    (the suite's ``window_layers`` divides inserts + deletes by four)."""
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    deltas = []
    with _counting():
        for chunking in ("one", "each", "chunks"):
            counts = _counts()
            _build(events, chunking, rng)
            deltas.append({name: value - counts[name]
                           for name, value in _counts().items()})
    assert deltas[0]["inserts"] == sum(1 for e in events if e[1] == 0)
    assert deltas[0]["deletes"] == sum(1 for e in events if e[1] == 1)
    assert deltas[1] == deltas[0] and deltas[2] == deltas[0]


def test_histories_reach_every_structure_change():
    """The generator's shape does produce key splits, merges, a root
    shrink and same-chronon replacements (one fixed draw)."""
    events = _history(400, random.Random(3).randint)
    tree = MVBT(SMALL)
    heights = []
    with _counting():
        counts = _counts()
        for event in events:
            replay(tree, [event])
            node, height = tree.live_root, 1
            while not node.is_leaf:
                node, height = node.live_entries()[0].child, height + 1
            heights.append(height)
        delta = {name: value - counts[name]
                 for name, value in _counts().items()}
    assert delta["key_splits"] and delta["merges"]
    assert max(heights) > heights[-1]  # the root shrank
    assert any(a[0] == b[0] and a[1] == 1 and b[1] == 0 and a[2] == b[2]
               for a, b in zip(events, events[1:]))
    tree.check_invariants()
