"""Tests for the delta compression of MVBT leaves (Section 4.2)."""
# repro-lint: disable-file=RL005 — the codec's own tests construct the store

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.time import MIN_TIME, NOW, Period, PeriodSet
from repro.mvbt import (
    MAX_KEY,
    MIN_KEY,
    MVBT,
    MVBTConfig,
    collect_validity,
    scan_pieces,
)
from repro.mvbt import compression as comp
from repro.mvbt.compression import (
    CompressedLeafStore,
    CompressionError,
    SHORT_INTERVAL_LIMIT,
    STANDARD_ENTRY_BYTES,
)
from repro.mvbt.entry import LeafEntry
from repro.obs import metrics

SMALL = MVBTConfig(block_capacity=8, weak_min=2, epsilon=1)


# ------------------------------------------------- the reference encoder
#
# Figure 3(a) written for reading, one entry and one field at a time: the
# codec the store used before its one-pass packer.  The packer, the
# ``end_live`` splice and the packed-from-birth path must all produce
# exactly these bytes.


def _zigzag(value):
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _len_code(value):
    for code, limit in enumerate((1, 1 << 8, 1 << 16, 1 << 32)):
        if value < limit:
            return code
    raise CompressionError(f"delta too large to encode: {value}")


def reference_encode(entries, base_v, base_ts, base_te):
    """The bytes of ``entries`` against the given node bases."""
    widths = (0, 1, 2, 4)
    buf = bytearray()
    prev = None
    for e in entries:
        if (prev is not None and e.key[0] == prev.key[0]
                and e.end == NOW and prev.end == NOW):
            fields = [_zigzag(e.key[1] - prev.key[1]),
                      _zigzag(e.key[2] - prev.key[2]),
                      _zigzag(e.start - prev.start)]
            l2, l3, lts = (_len_code(f) for f in fields)
            buf.append(0x80 | (l2 << 5) | (l3 << 3) | (lts << 1))
        else:
            fields, sources = [], []
            for i in range(3):
                delta, source = _zigzag(e.key[i] - base_v[i]), 0
                if prev is not None:
                    vs_prev = _zigzag(e.key[i] - prev.key[i])
                    if _len_code(vs_prev) < _len_code(delta):
                        delta, source = vs_prev, 1
                fields.append(delta)
                sources.append(source)
            if e.end == NOW:
                te_flag, te_value = 0, 0
            elif e.end - e.start <= SHORT_INTERVAL_LIMIT:
                te_flag, te_value = 1, e.end - e.start
            else:
                te_flag, te_value = 2, _zigzag(e.end - base_te)
            fields += [e.start - base_ts, te_value]
            l1, l2, l3, lts, lte = (_len_code(f) for f in fields)
            header = ((l1 << 13) | (l2 << 11) | (l3 << 9) | (sources[0] << 8)
                      | (lts << 6) | (lte << 4) | (sources[1] << 3)
                      | (sources[2] << 2) | te_flag)
            buf += header.to_bytes(2, "big")
        for f in fields:
            buf += f.to_bytes(widths[_len_code(f)], "big")
        prev = e
    return bytes(buf)


def reference_store_bytes(store):
    """``store``'s current entries re-encoded from scratch against its
    own bases — what its buffer must equal after any edit."""
    state = store.to_state()
    return reference_encode(
        store.entries(), state["base_v"], state["base_ts"], state["base_te"]
    )


def entry(v1, v2, v3, ts, te=NOW):
    return LeafEntry((v1, v2, v3), ts, te, None)


class TestCodecWidths:
    """Byte-length codes 0/1/2/3 hold 0/1/2/4 bytes; deltas are zigzagged."""

    @pytest.mark.parametrize("delta, width", [
        (0, 0), (1, 1), (127, 1), (128, 2), (32767, 2), (32768, 4),
        (2**31 - 1, 4),
        (-1, 1), (-128, 1), (-129, 2), (-32768, 2), (-32769, 4),
    ])
    def test_key_delta_width_boundaries(self, delta, width):
        # The second entry's v3 is ``delta`` away from both candidates
        # (node base and predecessor); v1 differs, so it is a normal entry.
        store = CompressedLeafStore([entry(1, 5, 10, 0)])
        before = len(store._buf)
        store.append(entry(2, 5, 10 + delta, 0))
        # 2 header bytes + 1 byte for v1's delta + the v3 delta
        assert len(store._buf) - before == 3 + width
        assert store.entries()[1].key == (2, 5, 10 + delta)
        assert bytes(store._buf) == reference_store_bytes(store)

    def test_delta_overflow_rejected_without_partial_write(self):
        store = CompressedLeafStore([entry(1, 2, 3, 5)])
        before = bytes(store._buf)
        with pytest.raises(CompressionError):
            store.append(entry(1, 2, 3 + 2**40, 6))
        assert bytes(store._buf) == before and store.count == 1
        with pytest.raises(CompressionError):
            CompressedLeafStore([entry(1, 2, 3, 5), entry(2**40, 2, 3, 6)])

    def test_short_key_rejected(self):
        with pytest.raises(CompressionError):
            CompressedLeafStore([LeafEntry((1, 2), 5, NOW, None)])
        store = CompressedLeafStore([entry(1, 2, 3, 5)])
        with pytest.raises(CompressionError):
            store.append(LeafEntry((1, 2, 3, 4), 6, NOW, None))


class TestStoreRoundtrip:
    def test_empty(self):
        store = CompressedLeafStore([])
        assert store.entries() == ()
        assert store.count == 0

    def test_single_live_entry(self):
        entries = [entry(100, 200, 300, 50)]
        store = CompressedLeafStore(entries)
        assert list(store.entries()) == entries

    def test_mixed_entries(self):
        entries = [
            entry(100, 200, 300, 50, 60),
            entry(100, 200, 301, 55),
            entry(100, 205, 9, 55, NOW - 1),  # long finite interval
            entry(7, 1, 2, 58),
        ]
        store = CompressedLeafStore(entries)
        assert list(store.entries()) == entries

    def test_compact_header_used_for_shared_prefix(self):
        """Consecutive live entries sharing v1 use the 1-byte header."""
        entries = [
            entry(42, 5, 7, 10),
            entry(42, 5, 8, 11),
            entry(42, 6, 1, 11),
        ]
        store = CompressedLeafStore(entries)
        assert list(store.entries()) == entries
        # First entry is normal (2-byte header); followers are compact and
        # tiny: well under the uncompressed 40 bytes each.
        assert len(store._buf) < 3 * 12

    def test_append_after_build(self):
        store = CompressedLeafStore([entry(1, 2, 3, 5)])
        store.append(entry(1, 2, 4, 9))
        assert [e.key for e in store.entries()] == [(1, 2, 3), (1, 2, 4)]

    def test_append_below_base_value(self):
        """Appends smaller than the node minima still roundtrip (zigzag)."""
        store = CompressedLeafStore([entry(100, 100, 100, 50)])
        store.append(entry(1, 1, 1, 50))
        assert store.entries()[1].key == (1, 1, 1)

    def test_append_time_regression_rejected(self):
        store = CompressedLeafStore([entry(1, 2, 3, 50)])
        with pytest.raises(CompressionError):
            store.append(entry(1, 2, 4, 10))

    def test_end_live(self):
        store = CompressedLeafStore(
            [entry(1, 2, 3, 5), entry(1, 2, 4, 6)]
        )
        assert store.end_live((1, 2, 3), 9)
        first, second = store.entries()
        assert first.end == 9
        assert second.end == NOW

    def test_end_live_missing(self):
        store = CompressedLeafStore([entry(1, 2, 3, 5)])
        assert not store.end_live((9, 9, 9), 7)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_end_live_rejects_before_mutating(self, which):
        """An end the codec cannot hold raises with the leaf untouched:
        a normal target, a compact one, and the (compact) last record."""
        entries = [entry(1, 2, 3 + i, 5 + i) for i in range(3)]
        store = CompressedLeafStore(entries)
        assert store.has_live(entries[0].key)  # builds the index
        before = (bytes(store._buf), store.to_state())
        with pytest.raises(CompressionError):
            store.end_live(entries[which].key, 2**40)
        assert (bytes(store._buf), store.to_state()) == before
        store.check_index(sealed=False)
        assert store.end_live(entries[which].key, 50)
        store.check_index(sealed=False)

    def test_payload_rejected(self):
        with pytest.raises(CompressionError):
            CompressedLeafStore([LeafEntry((1, 2, 3), 5, NOW, "data")])

    def test_sizeof_beats_standard(self):
        entries = [entry(7, 3, i, 100 + i) for i in range(50)]
        store = CompressedLeafStore(entries)
        assert store.sizeof() < STANDARD_ENTRY_BYTES * len(entries)


@st.composite
def entry_lists(draw):
    # Respect the MVBT leaf invariants the store assumes: (key, start)
    # identifies an entry, and at most one entry per key is live —
    # inserting a duplicate live key raises DuplicateKeyError upstream.
    n = draw(st.integers(min_value=0, max_value=40))
    out = []
    seen = set()
    live_keys = set()
    ts = 0
    for _ in range(n):
        ts += draw(st.integers(min_value=0, max_value=1000))
        v1 = draw(st.integers(min_value=1, max_value=2**30))
        v2 = draw(st.integers(min_value=1, max_value=2**30))
        v3 = draw(st.integers(min_value=1, max_value=2**30))
        if draw(st.booleans()):
            te = NOW
        else:
            te = ts + draw(st.integers(min_value=1, max_value=2**20))
        key = (v1, v2, v3)
        if (key, ts) in seen or (te == NOW and key in live_keys):
            continue
        seen.add((key, ts))
        if te == NOW:
            live_keys.add(key)
        out.append(entry(v1, v2, v3, ts, te))
    return out


@settings(max_examples=100, deadline=None)
@given(entry_lists())
def test_roundtrip_property(entries):
    store = CompressedLeafStore(entries)
    assert list(store.entries()) == entries


@settings(max_examples=40, deadline=None)
@given(entry_lists(), st.integers(0, 39))
def test_end_live_property(entries, which):
    live = [e for e in entries if e.end == NOW]
    store = CompressedLeafStore(entries)
    if not live:
        return
    target = live[which % len(live)]
    te = max(e.start for e in entries) + 5
    assert store.end_live(target.key, te)
    decoded = store.entries()
    changed = [e for e in decoded if e.key == target.key and e.end == te]
    assert changed, "target entry not updated"
    untouched = [
        (e.key, e.start, e.end) for e in entries if e is not target
    ]
    got_rest = [
        (e.key, e.start, e.end)
        for e in decoded
        if not (e.key == target.key and e.start == target.start)
    ]
    assert got_rest == untouched


class TestCompressedTree:
    def _build(self, n=200, seed=3):
        rng = random.Random(seed)
        tree = MVBT(SMALL)
        live = set()
        time = 0
        for _ in range(n):
            time += rng.randint(0, 2)
            k = (rng.randint(0, 30), rng.randint(0, 3), rng.randint(0, 3))
            if k in live and rng.random() < 0.4:
                tree.delete(k, time)
                live.discard(k)
            elif k not in live:
                tree.insert(k, time)
                live.add(k)
        return tree, time

    def test_queries_identical_after_compression(self, scan_modes):
        tree, _ = self._build()
        before = collect_validity(tree)
        tree.compress()
        assert all(leaf.is_compressed for leaf in tree.leaf_nodes())
        for mode in scan_modes():
            assert collect_validity(tree) == before, mode

    def test_decompress_restores(self):
        tree, _ = self._build()
        before = collect_validity(tree)
        tree.compress()
        tree.decompress()
        assert not any(leaf.is_compressed for leaf in tree.leaf_nodes())
        assert collect_validity(tree) == before

    def test_decompress_reads_past_the_memo(self, packed_mode):
        """Decompressing decodes with ``rows()``: a hot leaf without a
        resident form is not decoded as a use (nor admitted, to be
        released at once), and a memoized leaf hands its charge back to
        the tree's table."""
        packed_mode(comp.PACKED_AUTO)
        decoded = metrics.REGISTRY.counter("mvbt.compression.leaves_decoded")
        tree, _ = self._build()
        tree.compress()
        warm, cold = [leaf for leaf in tree.leaf_nodes()
                      if leaf.count and leaf.start < leaf.death][:2]
        collect_validity(tree)  # first touch of every leaf: packed
        collect_validity(tree)  # second touch: every leaf memoized
        assert warm._store._decoded is not None
        cold._store.invalidate()
        entries, leaves = tree.memo.entries, tree.memo.leaves
        before = decoded.value
        for leaf in (warm, cold):
            rows = leaf.rows()
            leaf.decompress()
            assert leaf.rows() == rows
        assert decoded.value == before
        assert tree.memo.entries == entries - warm.count
        assert tree.memo.leaves == leaves - 1

    def test_windowed_queries_after_compression(self, scan_modes):
        tree, time = self._build(400, seed=9)
        windows = [(0, time // 3), (time // 3, time), (time // 2, time // 2 + 1)]
        expected = {
            w: collect_validity(tree, MIN_KEY, MAX_KEY, *w) for w in windows
        }
        tree.compress()
        for mode in scan_modes():
            for w in windows:
                assert (collect_validity(tree, MIN_KEY, MAX_KEY, *w)
                        == expected[w]), mode

    def test_updates_on_compressed_tree(self, scan_modes):
        """Section 4.2.2: maintenance keeps working after compression."""
        tree, time = self._build()
        tree.compress()
        tree.insert((99, 0, 0), time + 1)
        tree.delete((99, 0, 0), time + 5)
        tree.check_invariants()
        for mode in scan_modes():
            got = collect_validity(tree, (99,), (100,))
            assert got == {
                (99, 0, 0): PeriodSet([Period(time + 1, time + 5)])
            }, mode

    def test_sealed_leaves_hold_bytes(self):
        """A dead leaf's buffer is immutable ``bytes`` whether it died
        before compression, after it, or comes back from a snapshot; a
        live leaf's stays an editable ``bytearray``."""
        tree, time = self._build(400, seed=5)
        tree.compress()
        for serial in range(60):
            tree.insert((100 + serial, 0, 0), time + 1 + serial)
        deaths = {leaf.death for leaf in tree.leaf_nodes()}
        assert min(deaths) <= time < max(d for d in deaths if d != NOW)
        for copy in (tree, MVBT.load_state(tree.dump_state())):
            for leaf in copy.leaf_nodes():
                assert type(leaf._store._buf) is (
                    bytearray if leaf.is_alive else bytes
                )

    def test_compression_saves_space(self):
        tree, _ = self._build(2000, seed=11)
        standard = tree.sizeof()
        tree.compress()
        compressed = tree.sizeof()
        assert compressed < standard * 0.7

    def test_mixed_mode_updates_match_reference(self, scan_modes):
        """Interleave compression with updates; match an uncompressed twin."""
        rng = random.Random(21)
        tree = MVBT(SMALL)
        shadow = MVBT(SMALL)
        live = set()
        time = 0
        for step in range(600):
            time += rng.randint(0, 2)
            k = (rng.randint(0, 20), 0, rng.randint(0, 4))
            if k in live and rng.random() < 0.4:
                tree.delete(k, time)
                shadow.delete(k, time)
                live.discard(k)
            elif k not in live:
                tree.insert(k, time)
                shadow.insert(k, time)
                live.add(k)
            if step in (150, 400):
                tree.compress()
        tree.check_invariants()
        want = collect_validity(shadow)
        for mode in scan_modes():
            assert collect_validity(tree) == want, mode


# ------------------------------------------- maintenance under compression
#
# A compressed tree is compressed throughout: version splits, key splits
# and merges create their leaves packed, writes edit the packed bytes, and
# none of it may show in the tree's shape or in any answer.


@st.composite
def update_streams(draw):
    """``(op, key, time)`` events over a small key domain (so keys are
    re-inserted after deletion and leaves both overflow and underflow)
    plus the event index at which the packed tree is compressed."""
    n = draw(st.integers(min_value=20, max_value=160))
    events = []
    live = []
    time = 0
    for _ in range(n):
        time += draw(st.integers(min_value=0, max_value=3))
        if live and draw(st.integers(0, 9)) < 4:
            key = live.pop(draw(st.integers(0, len(live) - 1)))
            events.append(("delete", key, time))
            continue
        key = (draw(st.integers(0, 6)), draw(st.integers(0, 300)),
               draw(st.integers(0, 3)))
        if key not in live:
            live.append(key)
            events.append(("insert", key, time))
    return events, draw(st.integers(0, len(events) // 2))


def apply_event(tree, event):
    op, key, time = event
    (tree.insert if op == "insert" else tree.delete)(key, time)


def shape(tree):
    """Every node's region, lifetime and entry counts, in walk order:
    equal shapes mean the same version and key splits happened."""
    return [
        (n.is_leaf, n.key_low, n.key_high, n.start, n.death, n.count,
         n.live_count)
        for n in tree.iter_nodes()
    ]


@st.composite
def tree_regions(draw):
    lo = draw(st.integers(0, 6))
    key_low = draw(st.sampled_from([MIN_KEY, (lo,), (lo, 150)]))
    key_high = draw(st.sampled_from([MAX_KEY, (lo + 2,), (lo + 1, 150)]))
    t1 = draw(st.one_of(st.just(MIN_TIME), st.integers(0, 400)))
    t2 = draw(st.one_of(st.just(NOW), st.integers(0, 500)))
    return key_low, key_high, t1, t2


@settings(max_examples=60, deadline=None)
@given(update_streams(), st.lists(tree_regions(), min_size=1, max_size=4),
       st.booleans())
def test_packed_tree_matches_plain_twin_under_updates(stream, regions,
                                                      round_trip):
    """Packed from ``compress_at`` on — so the splits, key splits and
    merges after it all create packed leaves — against a twin that is
    never compressed; optionally through a snapshot round trip halfway
    down the rest of the stream."""
    events, compress_at = stream
    reload_at = (compress_at + len(events)) // 2 if round_trip else None
    packed, twin = MVBT(SMALL), MVBT(SMALL)
    for index, event in enumerate(events):
        if index == compress_at:
            packed.compress()
        if index == reload_at:
            packed = MVBT.load_state(packed.dump_state())
        apply_event(packed, event)
        apply_event(twin, event)
    packed.check_invariants()
    assert shape(packed) == shape(twin)
    for leaf, plain in zip(packed.leaf_nodes(), twin.leaf_nodes()):
        assert leaf.is_compressed  # live or dead, loaded or split-born
        assert list(leaf.entries()) == list(plain.entries())
        # Packed once and edited in place since: the bytes a fresh encode
        # against the leaf's own bases would give.
        assert bytes(leaf._store._buf) == reference_store_bytes(leaf._store)
    previous = comp.packed_mode()
    try:
        for mode in (comp.PACKED_OFF, comp.PACKED_AUTO, comp.PACKED_FORCE):
            comp.set_packed_mode(mode)
            for region in regions:
                assert (scan_pieces(packed, *region)
                        == scan_pieces(twin, *region)), (mode, region)
    finally:
        comp.set_packed_mode(previous)


# --------------------------------------------------- the walking reference
#
# What ``has_live``/``end_live``/``append`` did before the live index: look
# at every record from the first.  Written over a plain entry list with
# the reference encoder for the bytes, so it shares nothing with the
# store's decoder, marks or splice.


class WalkingLeaf:
    def __init__(self, store):
        state = store.to_state()
        self.bases = (state["base_v"], state["base_ts"], state["base_te"])
        self.entries = [e.copy() for e in store.entries()]

    def has_live(self, key):
        return any(e.end == NOW and e.key == key for e in self.entries)

    def end_live(self, key, end):
        for e in self.entries:
            if e.end == NOW and e.key == key:
                e.end = end
                return True
        return False

    def append(self, new):
        self.entries.append(new.copy())

    def bytes(self):
        return reference_encode(self.entries, *self.bases)


def assert_same_leaf(store, walking):
    assert bytes(store._buf) == walking.bytes()
    assert store.count == len(walking.entries)
    store.check_index(sealed=False)


@settings(max_examples=150, deadline=None)
@given(entry_lists(), st.lists(
    st.tuples(st.sampled_from(["end", "end", "append", "probe", "miss"]),
              st.integers(0, 10**6)),
    min_size=1, max_size=30))
def test_seek_edits_match_the_walking_reference(entries, steps):
    """Random kill orders with interleaved appends and duplicate checks:
    every return value and every byte equals the walking reference's."""
    if not entries:
        entries = [entry(5, 5, 5, 0)]  # bases fixed at build, as for a leaf
    store = CompressedLeafStore(entries)
    if steps[0][1] % 2:
        # As a split hands it over; otherwise the first write walks.
        store.index(entries)
        store.check_index(sealed=False)
    walking = WalkingLeaf(store)
    horizon = max(e.start for e in entries)
    for step, (op, pick) in enumerate(steps):
        live = [e.key for e in walking.entries if e.end == NOW]
        if op == "end" and live:
            key = live[pick % len(live)]
            # Alternate the three te rules: short, long, live-range ends.
            end = horizon + (1, SHORT_INTERVAL_LIMIT + 2, 2**20)[step % 3]
            assert store.end_live(key, end) is walking.end_live(key, end)
            assert not store.has_live(key)
        elif op == "append":
            horizon += pick % 3
            new = entry(1 + pick % 7, 1 + pick % 11, 2**30 + step, horizon)
            store.append(new)
            walking.append(new)
        elif op == "probe" and live:
            key = live[pick % len(live)]
            assert store.has_live(key) and walking.has_live(key)
        else:
            key = (pick, pick, 0)  # v3 = 0: never generated
            assert store.has_live(key) is walking.has_live(key) is False
            assert store.end_live(key, horizon + 1) is False
        assert_same_leaf(store, walking)


@pytest.mark.parametrize("count", [
    comp.MARK_EVERY - 1, comp.MARK_EVERY, comp.MARK_EVERY + 1,
    3 * comp.MARK_EVERY,
])
def test_seek_at_block_boundaries(count):
    """Every position of a leaf whose length sits on or beside a mark:
    the last record (no follower), the record before a mark (its follower
    opens the next block, so the mark sits inside the splice), and the
    mark itself — each followed by a second delete that has to start from
    the marks the first one moved."""
    for shared_v1 in (True, False):  # compact followers, and normal ones
        for first in range(count):
            for second in range(count):
                if first == second:
                    continue
                store = CompressedLeafStore([
                    entry(7 if shared_v1 else 7 + i, 3, i, 100 + i)
                    for i in range(count)
                ])
                walking = WalkingLeaf(store)
                for step, at in enumerate((first, second)):
                    key = (7 if shared_v1 else 7 + at, 3, at)
                    end = 200 + count + step * 2**17
                    assert store.end_live(key, end)
                    assert walking.end_live(key, end)
                    assert_same_leaf(store, walking)
                tail = entry(9, 9, 9, 300 + count)
                store.append(tail)
                walking.append(tail)
                assert_same_leaf(store, walking)


def test_seek_records_counts_not_clocks():
    """The guard on the write path's decode work, as counts: one full walk
    builds a loaded leaf's live index, a duplicate check then looks at
    nothing, a delete at at most ``MARK_EVERY + 1`` records (``+ 2``
    allowed), no leaf walks twice in a process and a leaf born from a
    split never walks."""
    seek = metrics.REGISTRY.counter("mvbt.compression.seek_records")
    if not metrics.ENABLED:
        pytest.skip("counters are no-ops under REPRO_OBS=0")
    n = 61
    store = CompressedLeafStore(
        [entry(1 + i // 9, i % 5, i, 10 + i) for i in range(n)])
    before = seek.value
    assert store.has_live((1, 0, 0))
    assert seek.value - before == n  # the one walk
    for i in range(n):
        mark = seek.value
        assert store.has_live((1 + i // 9, i % 5, i))
        assert not store.has_live((99, i, i))
        assert seek.value == mark
    appended = entry(8, 8, 8, 100)
    store.append(appended)
    assert seek.value - before == n  # append keeps the index, decodes nothing
    for i in list(range(0, n, 3)) + [n - 2]:
        mark = seek.value
        assert store.end_live((1 + i // 9, i % 5, i), 200 + i)
        assert 1 <= seek.value - mark <= comp.MARK_EVERY + 2
    mark = seek.value
    assert store.end_live(appended.key, 300)
    assert not store.end_live(appended.key, 301)
    assert 1 <= seek.value - mark <= comp.MARK_EVERY + 2

    # Tree level: the one leaf that was there when the tree was packed is
    # walked once; the leaves its splits create take their index from the
    # split, however many writes and further splits follow.
    tree = MVBT(SMALL)
    tree.compress()
    loaded = tree.live_root._store
    built = []
    original = CompressedLeafStore._walk_index

    def counting(self):
        built.append(id(self))
        return original(self)

    CompressedLeafStore._walk_index = counting
    try:
        rng = random.Random(5)
        live = []
        for time in range(600):
            if live and rng.random() < 0.4:
                tree.delete(live.pop(rng.randrange(len(live))), time)
            else:
                key = (rng.randrange(5), time, 0)
                live.append(key)
                tree.insert(key, time)
        stores = [leaf._store for leaf in tree.leaf_nodes()]
    finally:
        CompressedLeafStore._walk_index = original
    assert len(stores) > 20 and built == [id(loaded)]
    tree.check_invariants()


@settings(max_examples=100, deadline=None)
@given(entry_lists(), st.lists(st.integers(0, 39), min_size=1, max_size=5))
def test_end_live_splice_matches_full_reencode(entries, kills):
    """Ending an entry rewrites its own bytes and its successor's and
    nothing else; the buffer must equal a from-scratch encode of the
    post-delete sequence at every step."""
    store = CompressedLeafStore(entries)
    assert bytes(store._buf) == reference_store_bytes(store)
    horizon = max((e.start for e in entries), default=0)
    for step, which in enumerate(kills):
        live = [e for e in store.entries() if e.end == NOW]
        if not live:
            break
        target = live[which % len(live)]
        # Alternate the three te rules: short, long, and live-range ends.
        end = horizon + (1, SHORT_INTERVAL_LIMIT + 2, 2**20)[step % 3]
        assert store.end_live(target.key, end)
        assert bytes(store._buf) == reference_store_bytes(store)
        assert not store.has_live(target.key)
    # The append checkpoint followed the edits.
    tail = entry(9, 9, 9, horizon + 2**20)
    store.append(tail)
    assert bytes(store._buf) == reference_store_bytes(store)
    assert store.entries()[-1] == tail


def test_packed_live_leaf_writes_bypass_the_read_memo():
    """Duplicate checks and deletes on a packed live leaf walk the bytes:
    no leaf decode is counted, nothing becomes resident, and the leaf
    gets no closer to the memo's hot threshold."""
    tree = MVBT(MVBTConfig(block_capacity=64, weak_min=4, epsilon=8))
    for i in range(20):
        tree.insert((1, i, 0), i)
    tree.compress()
    leaf = tree.live_root
    assert leaf.is_leaf and leaf.is_compressed
    decoded = metrics.REGISTRY.counter("mvbt.compression.leaves_decoded")
    before = (comp.memo_entries(), decoded.value, leaf._store._uses)
    for i in range(15):
        tree.insert((1, 100 + i, 0), 50 + i)
        with pytest.raises(Exception, match="already live"):
            tree.insert((1, 100 + i, 0), 50 + i)
    for i in range(15):
        tree.delete((1, 100 + i, 0), 80 + i)
        tree.delete((1, i, 0), 80 + i)
    assert tree.live_root is leaf  # 50 entries: no split yet
    assert (comp.memo_entries(), decoded.value, leaf._store._uses) == before
    assert bytes(leaf._store._buf) == reference_store_bytes(leaf._store)
    tree.check_invariants()


class TestPackedTreeLifecycle:
    def _tree(self):
        tree = MVBT(SMALL)
        for i in range(30):
            tree.insert((i % 5, i, 0), i)
        tree.compress()
        return tree

    def test_compress_and_decompress_set_the_flag(self):
        tree = self._tree()
        assert tree.is_packed
        tree.decompress()
        assert not tree.is_packed
        for i in range(30):
            tree.insert((9, i, 0), 40 + i)
        assert not any(leaf.is_compressed for leaf in tree.leaf_nodes())
        tree.check_invariants()

    def test_splits_create_packed_leaves(self):
        tree = self._tree()
        for i in range(60):
            tree.insert((9, i, 0), 40 + i)
            if i % 3 == 0:
                tree.delete((i // 3 % 5, i // 3, 0), 40 + i)
        born = [leaf for leaf in tree.leaf_nodes() if leaf.start >= 40]
        assert any(leaf.is_alive for leaf in born)
        assert any(not leaf.is_alive for leaf in born)
        assert all(leaf.is_compressed for leaf in tree.leaf_nodes())
        # A dead leaf is its bytes alone: the live index went at the kill.
        assert all(leaf._store._live is None
                   for leaf in born if not leaf.is_alive)
        tree.check_invariants()

    def test_empty_root_takes_its_bases_from_the_first_append(self):
        tree = MVBT(SMALL)
        tree.compress()
        tree.insert((70_000, 80_000, 90_000), 15_000)
        tree.insert((70_000, 80_000, 90_001), 15_001)
        store = tree.live_root._store
        assert store.to_state()["base_v"] == (70_000, 80_000, 90_000)
        assert store.to_state()["base_ts"] == 15_000
        assert len(store._buf) == 2 + 1 + 2  # a bare header, then compact
        assert bytes(store._buf) == reference_store_bytes(store)
        tree.check_invariants()

    def test_reading_a_dead_leaf_leaves_it_sealed(self):
        """``live_entries`` on a dead packed leaf decodes; it does not
        bring back the index its death dropped."""
        tree = self._tree()
        for i in range(60):
            tree.insert((9, i, 0), 40 + i)
        dead = [leaf for leaf in tree.leaf_nodes() if not leaf.is_alive]
        assert dead
        for leaf in dead:
            carried = leaf.live_entries()  # what its split carried over
            assert carried and all(e.is_live for e in carried)
            assert leaf._store._live is None
        tree.check_invariants()

    @pytest.mark.parametrize("alive", [True, False])
    def test_invariants_flag_a_plain_leaf(self, alive):
        tree = self._tree()
        for i in range(30):
            tree.insert((9, i, 0), 40 + i)
        next(leaf for leaf in tree.leaf_nodes()
             if leaf.is_alive == alive).decompress()
        with pytest.raises(AssertionError, match="plain leaf in a packed"):
            tree.check_invariants()

    def test_invariants_flag_a_drifted_live_index(self):
        tree = self._tree()
        tree.insert((9, 1, 0), 40)  # builds the target leaf's index
        store = next(leaf._store for leaf in tree.leaf_nodes()
                     if leaf._store._live)
        store._marks[-1] += 1
        with pytest.raises(AssertionError, match="live index drifted"):
            tree.check_invariants()

    def test_snapshot_with_plain_live_leaves_still_opens(self, scan_modes):
        """What a store directory written before leaves were packed from
        birth holds: a packed tree whose split-born live leaves are
        plain.  Restore packs them."""
        tree = self._tree()
        twin = self._tree()
        for i in range(60):
            for t in (tree, twin):
                t.insert((9, i, 0), 40 + i)
        for leaf in tree.leaf_nodes():
            if leaf.is_alive:
                leaf.decompress()
        state = tree.dump_state()
        assert state["packed"] and any(
            "entries" in n for n in state["nodes"] if n["kind"] == "leaf")
        reopened = MVBT.load_state(state)
        reopened.check_invariants()
        assert all(leaf.is_compressed for leaf in reopened.leaf_nodes())
        for mode in scan_modes():
            assert collect_validity(reopened) == collect_validity(twin), mode
        # Re-packed leaves take their bases from all they hold, the
        # twin's from their birth set: within a few bytes per leaf.
        assert abs(reopened.sizeof() - twin.sizeof()) <= 4 * sum(
            1 for leaf in twin.leaf_nodes() if leaf.is_alive)
        for i in range(40):
            for t in (reopened, twin):
                t.insert((3, 500 + i, 0), 200 + i)
                t.delete((9, i, 0), 200 + i)
        reopened.check_invariants()
        assert shape(reopened) == shape(twin)
        for mode in scan_modes():
            assert collect_validity(reopened) == collect_validity(twin), mode

    @pytest.mark.parametrize("key, payload", [
        ((9, 1, 0), "data"), ((9, 1), None), ((9, 1, 0, 0), None),
    ])
    def test_unpackable_insert_fails_before_mutating(self, key, payload):
        tree = self._tree()
        for i in range(12):  # the live leaves are now split-born
            tree.insert((9, 100 + i, 0), 40 + i)
        before = (shape(tree), tree.live_records, tree.current_time)
        with pytest.raises(CompressionError):
            tree.insert(key, 60, payload)
        assert (shape(tree), tree.live_records, tree.current_time) == before
        tree.check_invariants()
        for i in range(30):  # and the tree keeps splitting cleanly
            tree.insert((9, 200 + i, 0), 60 + i)
        tree.check_invariants()

    def test_state_roundtrip_keeps_sealing(self):
        tree = self._tree()
        state = tree.dump_state()
        assert state["packed"] is True
        restored = MVBT.load_state(state)
        # Snapshots written before the flag existed: inferred.
        del state["packed"]
        legacy = MVBT.load_state(state)
        assert restored.is_packed and legacy.is_packed
        for i in range(40):
            for t in (tree, restored, legacy):
                t.insert((9, i, 0), 40 + i)
        assert restored.sizeof() == legacy.sizeof() == tree.sizeof()
        for t in (restored, legacy):
            t.check_invariants()
        plain = MVBT(SMALL)
        plain.insert((1, 1, 1), 1)
        state = plain.dump_state()
        del state["packed"]
        assert not MVBT.load_state(state).is_packed
