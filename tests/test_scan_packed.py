"""Scan-on-compressed: the packed decoder must be invisible in results.

Three layers of pinning:

* a hypothesis property that :func:`repro.mvbt.compression.scan_packed`
  over randomized entry sequences — compact and normal headers, all three
  ``te`` flags, negative neighbour deltas, ``end_live`` rewrites mid
  sequence — is element-for-element identical to decode-then-filter;
* byte-level checks that ``end_live``'s two-entry splice produces exactly
  the bytes a full re-encode would;
* a fig9-style golden test that query results are byte-identical with
  the packed path forced on, forced off, and adaptive, plus the
  per-engine memo policy and the resident form of a memoized leaf.
"""
# repro-lint: disable-file=RL005 — the codec's own tests construct the store

import gc
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import wikipedia
from repro.engine import RDFTX
from repro.model.time import MIN_TIME, NOW
from repro.mvbt import MAX_KEY, MIN_KEY, scan_pieces
from repro.mvbt import compression as comp
from repro.mvbt.compression import CompressedLeafStore, MemoTable
from repro.mvbt.entry import LeafEntry
from repro.mvbt.scan import scan_leaf_pieces
from repro.obs import metrics as _metrics


def entry(v1, v2, v3, ts, te=NOW):
    return LeafEntry((v1, v2, v3), ts, te, None)


def hot_store(entries, table=None):
    """A store read ``HOT_USES`` times through ``table`` (a fresh one by
    default): memoized when the table has room."""
    store = CompressedLeafStore(entries, table or MemoTable())
    for _ in range(comp.HOT_USES):
        store.flat()
    return store


def reference_scan(store, key_low, key_high, t1, t2, node_start, node_death):
    """The legacy path: decode everything, then filter."""
    out = []
    for e in store.entries():
        key = e.key
        if key < key_low or key >= key_high:
            continue
        lo = max(e.start, node_start)
        hi = min(e.end, node_death)
        if lo >= hi or lo >= t2 or t1 >= hi:
            continue
        out.append((key, lo, hi, None))
    return out


# ------------------------------------------------------------- strategies


@st.composite
def entry_lists(draw):
    """Entry sequences exercising every header shape.

    Small value domains force shared-v1 runs (compact headers) next to
    jumps in *both* directions (negative neighbour deltas); the ``te``
    choice covers live (flag 0), short-interval (flag 1), and
    beyond-the-short-limit (flag 2) encodings.  MVBT leaf invariants are
    respected: unique ``(key, ts)``, at most one live entry per key.
    """
    n = draw(st.integers(min_value=0, max_value=30))
    out = []
    seen = set()
    live_keys = set()
    ts = 0
    for _ in range(n):
        ts += draw(st.integers(min_value=0, max_value=300))
        v1 = draw(st.integers(min_value=1, max_value=8))
        v2 = draw(st.integers(min_value=1, max_value=2**20))
        v3 = draw(st.integers(min_value=1, max_value=6))
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            te = NOW
        elif choice == 1:  # short interval: te flag 1
            te = ts + draw(st.integers(min_value=1, max_value=0xFFFF))
        else:  # long interval: te flag 2 (delta vs node min te)
            te = ts + 0xFFFF + draw(st.integers(min_value=1, max_value=2**20))
        key = (v1, v2, v3)
        if (key, ts) in seen or (te == NOW and key in live_keys):
            continue
        seen.add((key, ts))
        if te == NOW:
            live_keys.add(key)
        out.append(entry(v1, v2, v3, ts, te))
    return out


@st.composite
def regions(draw):
    lo1 = draw(st.integers(min_value=0, max_value=9))
    span = draw(st.integers(min_value=0, max_value=9))
    key_low = draw(st.sampled_from([
        MIN_KEY, (lo1,), (lo1, draw(st.integers(0, 2**20)))
    ]))
    key_high = draw(st.sampled_from([
        MAX_KEY, (lo1 + span,), (lo1 + span, draw(st.integers(0, 2**20)))
    ]))
    t1 = draw(st.one_of(
        st.just(MIN_TIME), st.integers(min_value=0, max_value=5000)
    ))
    t2 = draw(st.one_of(
        st.just(NOW), st.integers(min_value=0, max_value=10_000)
    ))
    return key_low, key_high, t1, t2


# ------------------------------------------------ the core property tests


@settings(max_examples=120, deadline=None)
@given(entry_lists(), regions(), st.integers(0, 10_000),
       st.booleans(), st.data())
def test_scan_packed_equals_decode_then_filter(entries, region, node_start,
                                               finite_death, data):
    store = CompressedLeafStore(entries)
    key_low, key_high, t1, t2 = region
    node_death = (
        node_start + data.draw(st.integers(1, 10_000))
        if finite_death else NOW
    )
    got = store.scan_packed(key_low, key_high, t1, t2,
                            node_start, node_death)
    want = reference_scan(store, key_low, key_high, t1, t2,
                          node_start, node_death)
    assert got == want


@settings(max_examples=80, deadline=None)
@given(entry_lists(), st.lists(st.integers(0, 29), max_size=4), regions())
def test_scan_packed_after_end_live_rewrites(entries, kills, region):
    """``end_live`` mid-sequence re-shapes the buffer (a compact follower
    of the killed entry must fall back to a normal header); the packed
    scan must track the rewritten bytes exactly."""
    store = CompressedLeafStore(entries)
    horizon = max((e.start for e in entries), default=0) + 7
    for which in kills:
        live = [e for e in store.entries() if e.end == NOW]
        if not live:
            break
        store.end_live(live[which % len(live)].key, horizon)
    key_low, key_high, t1, t2 = region
    got = store.scan_packed(key_low, key_high, t1, t2, 0, NOW)
    assert got == reference_scan(store, key_low, key_high, t1, t2, 0, NOW)


@settings(max_examples=60, deadline=None)
@given(entry_lists(), st.integers(0, 29))
def test_end_live_splice_matches_reappending(entries, which):
    """The splice must produce byte-identical output to re-packing the
    whole (post-delete) sequence against the same node bases (the check
    against an independent encoder is in ``test_mvbt_compression.py``)."""
    store = CompressedLeafStore(entries)
    live = [e for e in store.entries() if e.end == NOW]
    if not live:
        return
    target = live[which % len(live)]
    horizon = max(e.start for e in entries) + 3
    assert store.end_live(target.key, horizon)
    expected = list(store.entries())
    state = store.to_state()
    repacked = bytearray()
    comp._pack(repacked, expected, None, *store._low, store._start)
    assert bytes(repacked) == state["buf"]
    # And the snapshot roundtrip stays byte-compatible.
    restored = CompressedLeafStore.from_state(store.to_state())
    assert list(restored.entries()) == expected


@settings(max_examples=40, deadline=None)
@given(entry_lists(), st.integers(0, 29))
def test_end_live_does_not_mutate_handed_out_entries(entries, which):
    """Readers holding a previously returned entry tuple, or the resident
    flat form, must keep seeing the pre-delete state (the memo-aliasing
    bug)."""
    store = hot_store(entries)
    flat = store.flat()  # resident and handed out
    before = store.entries()
    live = [e for e in before if e.end == NOW]
    if not live:
        return
    target = live[which % len(live)]
    snapshot = [(e.key, e.start, e.end) for e in before]
    assert store.end_live(target.key, max(e.start for e in entries) + 3)
    assert [(e.key, e.start, e.end) for e in before] == snapshot
    it = iter(flat)
    assert list(zip(it, it, it)) == snapshot
    # The store itself sees the rewrite.
    assert any(
        e.key == target.key and e.start == target.start and e.end != NOW
        for e in store.entries()
    )


# ------------------------------------------------------------ memo policy


def memoized_leaves(engine):
    """Every leaf of ``engine`` holding a resident flat form."""
    return [
        leaf for tree in engine.indexes.values()
        for leaf in tree.leaf_nodes() if leaf._store._decoded is not None
    ]


def run_passes(engine, texts, passes=comp.HOT_USES + 1):
    for _ in range(passes):
        for text in texts:
            engine.query(text)


class TestMemoPolicy:
    def test_cold_leaf_keeps_nothing_resident(self):
        table = MemoTable()
        store = CompressedLeafStore([entry(1, 2, 3, 5), entry(1, 2, 4, 6)],
                                    table)
        first = store.entries()
        assert isinstance(first, tuple)
        assert store._decoded is None  # one use: still cold
        assert table.report() == {"entries": 0, "leaves": 0, "interned": 0,
                                  "budget": comp.MEMO_BUDGET}

    def test_hot_leaf_memoizes_and_charges_the_budget(self, packed_mode):
        """The second touch admits a leaf and charges its own engine's
        table, not another engine's."""
        packed_mode(comp.PACKED_AUTO)
        graph = wikipedia.generate(300, seed=3).graph
        engine, other = RDFTX.from_graph(graph), RDFTX.from_graph(graph)
        leaf = next(leaf for leaf in engine.indexes["spo"].leaf_nodes()
                    if leaf.count)
        assert all(tree.memo is engine.memo
                   for tree in engine.indexes.values())
        assert leaf._store.memo is engine.memo
        gc.collect()  # tables of engines earlier tests dropped
        resident = comp.memo_entries()
        scan_leaf_pieces(leaf, MIN_KEY, MAX_KEY, MIN_TIME, NOW)
        assert leaf._store._decoded is None  # first touch: packed
        scan_leaf_pieces(leaf, MIN_KEY, MAX_KEY, MIN_TIME, NOW)
        assert leaf._store._decoded is not None
        assert engine.memo.report()["entries"] == leaf.count
        assert engine.memo.report()["leaves"] == 1
        assert other.memo.entries == 0
        assert comp.memo_entries() == resident + leaf.count

    def test_an_edit_returns_the_charge(self):
        table = MemoTable()
        store = hot_store([entry(1, 2, 3, 5), entry(1, 2, 4, 6)], table)
        assert (table.entries, table.leaves) == (2, 1)
        store.append(entry(1, 2, 5, 9))
        assert store._decoded is None
        assert (table.entries, table.leaves) == (0, 0)
        for _ in range(comp.HOT_USES):
            store.flat()
        assert (table.entries, table.leaves) == (3, 1)
        assert store.end_live((1, 2, 4), 20)
        assert store._decoded is None
        assert (table.entries, table.leaves) == (0, 0)

    def test_exhausted_budget_blocks_memoization(self, packed_mode):
        packed_mode(comp.PACKED_AUTO)
        table = MemoTable()
        hot_store([entry(1, 2, 3, 5)], table)
        table.budget = table.entries
        store = hot_store([entry(4, 5, 6, 7)], table)
        assert store._decoded is None
        assert store.wants_packed()  # hot, but no room: stays packed
        assert table.entries == 1

    def test_two_engines_have_independent_budgets(self):
        """One engine's full budget does not stop another's admissions."""
        from repro.datasets.queries import selection_queries

        graph = wikipedia.generate(300, seed=4).graph
        texts = selection_queries(graph, count=4)
        full, free = RDFTX.from_graph(graph), RDFTX.from_graph(graph)
        full.memo.budget = 0
        run_passes(full, texts)
        run_passes(free, texts)
        assert full.memo.entries == 0 and not memoized_leaves(full)
        assert free.memo.entries > 0
        assert free.memo.entries == sum(
            leaf.count for leaf in memoized_leaves(free))

    def test_packed_scans_promote_a_hot_leaf(self, packed_mode):
        packed_mode(comp.PACKED_AUTO)  # pin: asserts adaptive behaviour
        store = CompressedLeafStore([entry(1, 2, 3, 5)], MemoTable())
        for _ in range(comp.HOT_USES - 1):
            assert store.wants_packed()
            store.scan_packed(MIN_KEY, MAX_KEY, MIN_TIME, NOW, 0, NOW)
        # Hot now: the adaptive mode prefers decoding once and reusing.
        assert not store.wants_packed()
        store.entries()
        assert store._decoded is not None
        assert not store.wants_packed()

    def test_standalone_store_is_never_memoized(self, packed_mode):
        packed_mode(comp.PACKED_AUTO)
        store = CompressedLeafStore([entry(1, 2, 3, 5)])
        for _ in range(comp.HOT_USES + 1):
            store.entries()
        assert store._decoded is None and store.wants_packed()

    def test_forced_modes_override_the_policy(self, packed_mode):
        store = hot_store([entry(1, 2, 3, 5)])
        assert store._decoded is not None
        packed_mode(comp.PACKED_FORCE)
        assert store.wants_packed()
        packed_mode(comp.PACKED_OFF)
        assert not store.wants_packed()

    def test_packed_counters_advance(self):
        if not _metrics.ENABLED:
            pytest.skip("REPRO_OBS=0")
        store = CompressedLeafStore(
            [entry(1, 2, 3, 5), entry(4, 2, 3, 6), entry(5, 2, 3, 7)]
        )
        scans = comp._PACKED_SCANS.value
        skipped = comp._PACKED_SKIPPED.value
        store.scan_packed((4,), (5,), MIN_TIME, NOW, 0, NOW)
        assert comp._PACKED_SCANS.value == scans + 1
        assert comp._PACKED_SKIPPED.value == skipped + 2

    def test_dropped_engine_table_is_collected(self, packed_mode):
        """Nothing process-wide holds a table: dropping the engine frees
        its memo, intern pool and budget together."""
        from repro.datasets.queries import selection_queries

        packed_mode(comp.PACKED_AUTO)
        graph = wikipedia.generate(300, seed=5).graph
        engine = RDFTX.from_graph(graph)
        run_passes(engine, selection_queries(graph, count=4))
        assert engine.memo.entries and engine.memo.report()["interned"]
        table = weakref.ref(engine.memo)
        del engine
        gc.collect()
        assert table() is None

    def test_concurrent_admissions_and_invalidations_balance(self):
        """Threads admitting stores to one table and invalidating them by
        edits (charges and releases interleaved across threads) lose no
        update."""
        table = MemoTable()
        entries = [entry(1, 2, k, 5) for k in range(8)]

        def churn(thread):
            stores = [CompressedLeafStore(entries, table) for _ in range(8)]
            for step in range(300):
                store = stores[step % len(stores)]
                for _ in range(comp.HOT_USES):
                    store.flat()
                store.append(entry(2, thread, step, 6 + step))
            for store in stores:
                store.flat()
                store.invalidate()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert (table.entries, table.leaves) == (0, 0)

    def test_dropped_engines_leave_the_budget_whole(self, packed_mode):
        """Engines built, queried and dropped (a reload, a replaced store)
        take their charges with them, so the sum over live tables returns
        to where it was and a long-lived process keeps memoizing."""
        from repro.datasets.queries import join_queries, selection_queries

        packed_mode(comp.PACKED_AUTO)
        gc.collect()
        resident = comp.memo_entries()
        charged = []
        for seed in range(3):
            graph = wikipedia.generate(600, seed=seed).graph
            engine = RDFTX.from_graph(graph)
            run_passes(engine, selection_queries(graph, count=4)
                       + join_queries(graph, count=2))
            charged.append(comp.memo_entries() - resident)
            del engine
            gc.collect()
            assert comp.memo_entries() == resident
        assert all(charged), "the workload never memoized a leaf"


# -------------------------------------------------- resident-form pins


class TestResidentForm:
    """What a memoized leaf keeps: one flat tuple of shared objects."""

    @pytest.fixture()
    def fig9(self, graph, workload, packed_mode):
        packed_mode(comp.PACKED_AUTO)
        engine = RDFTX.from_graph(graph)
        return engine, workload

    def test_flat_form_equals_the_rows(self, fig9):
        engine, texts = fig9
        run_passes(engine, texts)
        leaves = memoized_leaves(engine)
        assert leaves
        for leaf in leaves:
            it = iter(leaf._store._decoded)
            assert list(zip(it, it, it)) == leaf.rows()

    def test_equal_keys_ids_and_chronons_are_one_object(self, fig9):
        engine, texts = fig9
        run_passes(engine, texts)
        canonical: dict = {}
        holders: dict = {}
        for leaf in memoized_leaves(engine):
            it = iter(leaf._store._decoded)
            for key, start, end in zip(it, it, it):
                holders.setdefault(key, set()).add(leaf.uid)
                for value in (key, *key, start, end):
                    assert canonical.setdefault(value, value) is value
        shared = [key for key, uids in holders.items() if len(uids) > 1]
        assert shared, "no key is memoized in two leaves"

    def test_intern_pool_stays_within_a_tiny_budget(self, fig9):
        engine, texts = fig9
        engine.memo.budget = 300
        peak = 0
        for _ in range(comp.HOT_USES + 1):
            for text in texts:
                engine.query(text)
                peak = max(peak, engine.memo.report()["interned"])
        assert 0 < peak <= 300
        assert 0 < engine.memo.entries <= 300

    def test_resident_bytes_per_memoized_entry(self, fig9):
        """Traced bytes the memo holds (freed by dropping every resident
        form and the pool) per memoized entry: about 220 B as a tuple of
        entry objects; a flat tuple of interned objects stays under 120."""
        engine, texts = fig9
        gc.collect()
        tracemalloc.start()
        try:
            run_passes(engine, texts)
            gc.collect()
            entries = engine.memo.entries
            held = tracemalloc.get_traced_memory()[0]
            for leaf in memoized_leaves(engine):
                leaf._store.invalidate()
            engine.memo._pool.clear()
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert entries > 1000
        assert held / entries <= 120


# -------------------------------------------------- fig9 golden identity


@pytest.fixture(scope="module")
def graph():
    return wikipedia.generate(1000, seed=23).graph


@pytest.fixture(scope="module")
def engine(graph):
    return RDFTX.from_graph(graph)


@pytest.fixture(scope="module")
def workload(graph):
    from repro.datasets.queries import join_queries, selection_queries

    return selection_queries(graph, count=5) + join_queries(graph, count=3)


class TestFig9GoldenIdentity:
    def test_query_results_identical_across_modes(self, engine, workload,
                                                  scan_modes):
        golden = None
        for mode in scan_modes():
            got = [repr(engine.query(t).rows) for t in workload]
            if golden is None:
                golden = got
            assert got == golden, f"mode={mode}"

    def test_scan_layer_identity_on_tree(self, engine, packed_mode):
        regions = [
            (MIN_KEY, MAX_KEY, MIN_TIME, NOW),
            (MIN_KEY, MAX_KEY, 5, 50),
            ((5,), (900, 0, 0), MIN_TIME, NOW),
        ]
        for tree in engine.indexes.values():
            for region in regions:
                packed_mode(comp.PACKED_OFF)
                want = scan_pieces(tree, *region)
                packed_mode(comp.PACKED_FORCE)
                assert scan_pieces(tree, *region) == want
