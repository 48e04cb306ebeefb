"""Delta compression of MVBT leaf nodes (Section 4.2, Figure 3(a)).

An uncompressed MVBT entry for temporal RDF holds five values
``(v1, v2, v3, ts, te)``.  The compressed store's per-node *base values* are
the node header: ``key_low`` for the key parts (``0`` each for ``MIN_KEY``)
and the lifetime start for ``ts`` and ``te``, lower bounds of every entry
(a version-split copy starts at the split).  A ``v2``/``v3`` below
``key_low``'s part is a negative, zigzagged delta; ids stay below ``2**30``,
so every delta fits 4 bytes.  Each entry is encoded as:

``[header][key block][time block]``

**Normal header** — 2 bytes::

    bit 15    H flag = 0 (normal)
    bits 14-13  l1   byte-length code of v1 delta   } 7-bit key payload
    bits 12-11  l2   byte-length code of v2 delta   }
    bits 10-9   l3   byte-length code of v3 delta   }
    bit  8      src1 v1 delta vs predecessor (1) or node base (0)
    bits 7-6    lts  byte-length code of ts delta   } 6-bit time payload
    bits 5-4    lte  byte-length code of te value   }
    bit  3      src2 (delta source flag of v2)
    bit  2      src3 (delta source flag of v3)
    bits 1-0    te flag: 0 = live (te empty), 1 = short interval
                (te stored as interval length), 2 = delta vs node start

**Compact header** — 1 byte, used when the entry and its predecessor share
``v1``, both are live (te = now), and the remaining deltas are small — the
common case the paper observes in large datasets::

    bit 7     H flag = 1 (compact)
    bits 6-5  l2   byte-length code of v2 delta vs predecessor
    bits 4-3  l3   byte-length code of v3 delta vs predecessor
    bits 2-1  lts  byte-length code of ts delta vs predecessor
    bit 0     reserved

Byte-length codes map ``{0: 0, 1: 1, 2: 2, 3: 4}`` bytes; deltas are
zigzag-encoded so negative neighbour deltas stay compact.  ``ts`` is always a
delta against the node start in normal entries, and a zigzag delta against
the predecessor in compact ones, so records pack in any order: a loaded leaf
is packed by key (``LeafNode.compress``), and appends follow in write order.
The last record in buffer order is the append *checkpoint*, all an append
encodes against, and nothing is rescanned.

The packed buffer is also the **scan substrate**: :func:`scan_packed` walks
it directly, evaluating the key-range and clamped-interval predicates on the
running decoded state and materializing ``(key, lo, hi, payload)`` pieces
only for survivors — no per-entry objects, no full-leaf expansion.  Only *hot*
leaves stay decoded, charged to their engine's :class:`MemoTable` (see
``docs/compression.md``); the test hook :func:`set_packed_mode` selects
adaptive packed scanning (``PACKED_AUTO``, the only mode a process starts
in), legacy decode-then-filter (``PACKED_OFF``), or always-packed
(``PACKED_FORCE``) for A/B and identity runs.

It is the **edit substrate** too: every leaf of a compressed tree is such a
buffer from birth, and a live one carries an out-of-band *live index*
(:class:`CompressedLeafStore`, fixed-width records in a ``bytearray``) so the
duplicate check is a byte search and a delete steps from the nearest restart
mark to its record and rewrites it in place instead of decoding the leaf.
"""

from __future__ import annotations

import struct
import threading
import weakref
from array import array
from typing import Any, Iterable

from ..model.time import MIN_TIME, NOW
from ..obs import metrics as _metrics
from .entry import MIN_KEY, Key, LeafEntry

# Decode instrumentation: a "page decode" is one cache-miss expansion of a
# compressed leaf buffer back into entries (no-ops under REPRO_OBS=0).
_PAGES_DECODED = _metrics.counter("mvbt.compression.leaves_decoded")
_ENTRIES_DECODED = _metrics.counter("mvbt.compression.entries_decoded")
_BYTES_DECODED = _metrics.counter("mvbt.compression.bytes_decoded")
# Packed-scan instrumentation: scans answered directly over the byte
# buffer, and the entries those scans filtered out without materializing.
_PACKED_SCANS = _metrics.counter("mvbt.compression.packed_scans")
_PACKED_SKIPPED = _metrics.counter("mvbt.compression.packed_entries_skipped")
# Write-path instrumentation: records an edit of a packed leaf had to look
# at — one full walk to build the live index of a leaf that was loaded or
# restored, then at most ``MARK_EVERY + 1`` per delete (headers skipped
# from the mark, the target, its follower) and none per duplicate check.
_SEEK_RECORDS = _metrics.counter("mvbt.compression.seek_records")

#: Simulated storage-layout size of an uncompressed entry: five 64-bit values
#: plus a pointer/flag word (see DESIGN.md; Python heap sizes would distort
#: every ratio the paper reports).
STANDARD_ENTRY_BYTES = 48

#: Per-node header: lifetime, key_low, link and bookkeeping words (a
#: packed leaf's delta bases).
NODE_HEADER_BYTES = 64

#: The key base of a node whose ``key_low`` is the empty ``MIN_KEY``.
_FLOOR = (0, 0, 0)

#: Interval lengths up to this bound use the "short interval" te rule.
SHORT_INTERVAL_LIMIT = 0xFFFF

#: A live leaf's index keeps a restart mark (a byte offset) every this
#: many records, so a delete steps over at most ``MARK_EVERY - 1`` record
#: headers to reach its target.  A constant, not a knob: the bytes do not
#: depend on it (marks are out of band).  Of 4, 8 and 16 none is
#: measurably faster — stepping over a header costs about what moving a
#: mark does — so the middle one is taken (table in
#: ``docs/compression.md``).
MARK_EVERY = 8

_LEN_CODE_TO_BYTES = (0, 1, 2, 4)

#: A live-index record: a live entry's key (three signed 64-bit parts),
#: its start version and its record ordinal; ``_KEY`` packs the probe.
_INDEX = struct.Struct(">4qi")
_KEY = struct.Struct(">3q")

# ------------------------------------------------------------ scan modes

#: Packed-scan modes: never scan packed (legacy decode-then-filter),
#: adaptive (packed unless the leaf is hot / already decoded), always
#: packed (ignore any decoded memo).  Processes run ``PACKED_AUTO``; the
#: other two exist for :func:`set_packed_mode` in tests and A/B runs.
PACKED_OFF, PACKED_AUTO, PACKED_FORCE = 0, 1, 2

_PACKED_MODE = PACKED_AUTO


def packed_mode() -> int:
    """The active packed-scan mode (``PACKED_OFF/AUTO/FORCE``)."""
    return _PACKED_MODE


def set_packed_mode(mode: int) -> int:
    """Override the packed-scan mode; returns the previous one (tests and
    A/B benchmarks)."""
    global _PACKED_MODE
    previous = _PACKED_MODE
    _PACKED_MODE = mode
    return previous


# ------------------------------------------------------------- memo policy

#: Decodes + packed scans of a leaf before it is *hot* and may stay
#: decoded: the first touch scans packed (allocating nothing), the second
#: decodes and memoizes, so single-touch leaves never expand.
HOT_USES = 2

#: A table's ceiling on resident decoded records, and on the objects its
#: intern pool holds before it starts over; past it leaves scan packed.
MEMO_BUDGET = 1 << 18

_TABLES: "weakref.WeakSet[MemoTable]" = weakref.WeakSet()


def memo_entries() -> int:
    """Decoded records held resident, summed over every live table."""
    return sum(table.entries for table in list(_TABLES))


class MemoTable:
    """One engine's decoded-leaf memo: budget, intern pool and lock.

    ``RDFTX`` hands one to its three trees (a standalone ``MVBT`` makes its
    own).  A hot leaf's resident form is one flat tuple ``(key0, start0,
    end0, key1, …)`` drawn from the pool, so a key that version splits
    copied into many leaves, and each id and chronon, exists once per
    table; dropping the engine drops memo, pool and budget together.
    """

    __slots__ = ("budget", "entries", "leaves", "_pool", "_lock",
                 "__weakref__")

    def __init__(self) -> None:
        self.budget = MEMO_BUDGET
        self.entries = self.leaves = 0  # resident records, their leaves
        self._pool: dict = {}
        self._lock = threading.Lock()
        _TABLES.add(self)

    def has_room(self, count: int) -> bool:
        return self.entries + count <= self.budget

    def admit(self, store: "CompressedLeafStore",
              records: list[tuple[int, Key, int, int]]) -> tuple:
        """The flat form of ``store``'s decoded ``records``, interned;
        resident on the store if the budget still has room."""
        pool = self._pool
        limit = self.budget - 6  # a record adds at most six objects
        flat: list = []
        for _, key, start, end in records:
            if len(pool) > limit:
                pool.clear()
            shared = pool.get(key)
            if shared is None:
                k1, k2, k3 = key
                shared = (pool.setdefault(k1, k1), pool.setdefault(k2, k2),
                          pool.setdefault(k3, k3))
                pool[shared] = shared
            flat += (shared, pool.setdefault(start, start),
                     pool.setdefault(end, end))
        flat = tuple(flat)
        with self._lock:
            if store._decoded is None and self.has_room(len(records)):
                self.entries += len(records)
                self.leaves += 1
                store._decoded = flat
        return flat

    def release(self, store: "CompressedLeafStore") -> None:
        """Drop ``store``'s resident form and return its charge."""
        with self._lock:
            flat = store._decoded
            if flat is not None:
                store._decoded = None
                self.entries -= len(flat) // 3
                self.leaves -= 1

    def report(self) -> dict:  # /debug/storage, repro-tx doctor
        return {"entries": self.entries, "leaves": self.leaves,
                "interned": len(self._pool), "budget": self.budget}


class CompressionError(ValueError):
    """Raised when an entry cannot be delta-encoded."""


#: Byte-length code by bit length of an unsigned (zigzagged) delta; a
#: lookup past the end is a delta wider than four bytes.
_CODE_OF_BITS = (0,) + (1,) * 8 + (2,) * 8 + (3,) * 16
_BITS_OF_CODE = tuple(8 * width for width in _LEN_CODE_TO_BYTES)
_MASK_OF_CODE = tuple((1 << bits) - 1 for bits in _BITS_OF_CODE)


#: Record length from the header alone.  By first byte: a compact record's
#: whole length, or a normal record's two header bytes plus its key block
#: (both headers keep three length codes in bits 6-1); by a normal record's
#: second byte: its time block.
_LEN_BY_FIRST = tuple(
    (1 if first & 0x80 else 2)
    + sum(_LEN_CODE_TO_BYTES[(first >> shift) & 0x3] for shift in (5, 3, 1))
    for first in range(256)
)
_LEN_BY_SECOND = tuple(
    _LEN_CODE_TO_BYTES[second >> 6] + _LEN_CODE_TO_BYTES[(second >> 4) & 0x3]
    for second in range(256)
)


def check_packable(entry: LeafEntry) -> None:
    """Raise :class:`CompressionError` unless the codec and the live index
    can hold ``entry`` (three signed 64-bit key parts, no payload)."""
    if entry.payload is not None:
        raise CompressionError("compressed leaves carry no payloads")
    if len(entry.key) != 3:
        raise CompressionError("compressed leaves need 3-part keys")
    _check_key(entry.key)


def _check_key(key: Key) -> None:
    try:
        _KEY.pack(*key)
    except struct.error:
        raise CompressionError("key parts must fit 64 bits") from None


def _end_field(start: int, end: int, base: int) -> tuple[int, int]:
    """The ``(te flag, te value)`` of an ended entry: its interval length
    when that is short, else the zigzagged delta against ``base``, the
    node's start."""
    if end - start <= SHORT_INTERVAL_LIMIT:
        return 1, end - start
    d = end - base
    return 2, d << 1 if d >= 0 else ~(d << 1)


def _pack(
    buf: bytearray,
    entries: Iterable[LeafEntry],
    prev: "tuple[Key, int, int] | None",
    base_v1: int,
    base_v2: int,
    base_v3: int,
    base_ts: int,
) -> "tuple[Key, int, int] | None":
    """Delta-encode ``entries`` onto the end of ``buf`` — the one encoder.

    ``prev`` is the ``(key, start, end)`` of the entry the first one
    follows (``None`` at the head of a buffer); the return value is the
    same triple for the last entry written, i.e. the append checkpoint.
    An entry's bytes depend only on itself, its predecessor and the node
    bases (``base_ts`` is the base of ``te`` too), so building a leaf,
    appending to it and re-encoding a slice of it
    (:meth:`CompressedLeafStore.end_live`) are all this loop.  Each
    record is assembled as one integer and written with a single
    ``to_bytes``; a failing entry leaves ``buf`` without a partial record.
    """
    codes = _CODE_OF_BITS
    bits = _BITS_OF_CODE
    if prev is None:
        have_prev = False
        p1 = p2 = p3 = pts = pte = 0
    else:
        have_prev = True
        (p1, p2, p3), pts, pte = prev
    try:
        for entry in entries:
            k1, k2, k3 = entry.key
            ts = entry.start
            te = entry.end
            ts_delta = ts - base_ts
            if ts_delta < 0:
                raise CompressionError("entry starts before its leaf")
            if have_prev and k1 == p1 and te == NOW and pte == NOW:
                # Compact: shares v1 with a live predecessor, itself live.
                d = k2 - p2
                d2 = d << 1 if d >= 0 else ~(d << 1)
                d = k3 - p3
                d3 = d << 1 if d >= 0 else ~(d << 1)
                d = ts - pts
                dts = d << 1 if d >= 0 else ~(d << 1)
                l2 = codes[d2.bit_length()]
                l3 = codes[d3.bit_length()]
                lts = codes[dts.bit_length()]
                b2 = bits[l2]
                b3 = bits[l3]
                bts = bits[lts]
                record = 0x80 | (l2 << 5) | (l3 << 3) | (lts << 1)
                record = (((record << b2 | d2) << b3 | d3) << bts) | dts
                buf += record.to_bytes(1 + ((b2 + b3 + bts) >> 3), "big")
            else:
                # Normal: each key part takes the shorter of its delta
                # against the node base and against the predecessor.
                d = k1 - base_v1
                d1 = d << 1 if d >= 0 else ~(d << 1)
                l1 = codes[d1.bit_length()]
                d = k2 - base_v2
                d2 = d << 1 if d >= 0 else ~(d << 1)
                l2 = codes[d2.bit_length()]
                d = k3 - base_v3
                d3 = d << 1 if d >= 0 else ~(d << 1)
                l3 = codes[d3.bit_length()]
                header = 0
                if have_prev:
                    d = k1 - p1
                    d = d << 1 if d >= 0 else ~(d << 1)
                    code = codes[d.bit_length()]
                    if code < l1:
                        d1, l1, header = d, code, 0x100
                    d = k2 - p2
                    d = d << 1 if d >= 0 else ~(d << 1)
                    code = codes[d.bit_length()]
                    if code < l2:
                        d2, l2, header = d, code, header | 0x8
                    d = k3 - p3
                    d = d << 1 if d >= 0 else ~(d << 1)
                    code = codes[d.bit_length()]
                    if code < l3:
                        d3, l3, header = d, code, header | 0x4
                if te == NOW:
                    te_value = 0
                else:
                    flag, te_value = _end_field(ts, te, base_ts)
                    header |= flag
                lts = codes[ts_delta.bit_length()]
                lte = codes[te_value.bit_length()]
                b1 = bits[l1]
                b2 = bits[l2]
                b3 = bits[l3]
                bts = bits[lts]
                bte = bits[lte]
                record = (
                    header | (l1 << 13) | (l2 << 11) | (l3 << 9)
                    | (lts << 6) | (lte << 4)
                )
                record = (
                    ((((record << b1 | d1) << b2 | d2) << b3 | d3)
                      << bts | ts_delta) << bte
                ) | te_value
                buf += record.to_bytes(
                    2 + ((b1 + b2 + b3 + bts + bte) >> 3), "big"
                )
            have_prev = True
            p1 = k1
            p2 = k2
            p3 = k3
            pts = ts
            pte = te
    except IndexError:
        raise CompressionError("delta too large to encode") from None
    return ((p1, p2, p3), pts, pte) if have_prev else None


def _records(
    buf: bytes,
    base_v: tuple[int, int, int],
    base_ts: int,
    base_te: int,
) -> list[tuple[int, Key, int, int]]:
    """Decode a packed buffer into ``(stop, key, start, end)`` per entry,
    ``stop`` being the offset one past the entry's last byte.  A store's
    ``base_te`` is its ``base_ts``; snapshot formats 1 and 2 saved both.

    The store's own decoder: full decodes and the live-index walk ride it.
    Scans use :func:`scan_packed`, which filters inline and never builds a
    tuple for an entry it rejects.
    """
    out = []
    append = out.append
    pos = 0
    size = len(buf)
    bits = _BITS_OF_CODE
    masks = _MASK_OF_CODE
    base_v1, base_v2, base_v3 = base_v
    from_bytes = int.from_bytes
    k1 = k2 = k3 = start = 0
    while pos < size:
        # Mirror of the packer: the fields behind the header are read as
        # one integer and taken apart from the low end.
        first = buf[pos]
        if first & 0x80:  # compact: shares v1, live, deltas vs prev
            c3 = (first >> 3) & 0x3
            cts = (first >> 1) & 0x3
            b3 = bits[c3]
            bts = bits[cts]
            stop = pos + 1 + ((bits[(first >> 5) & 0x3] + b3 + bts) >> 3)
            raw = from_bytes(buf[pos + 1 : stop], "big")
            dts = raw & masks[cts]
            raw >>= bts
            d3 = raw & masks[c3]
            d2 = raw >> b3
            k2 += (d2 >> 1) ^ -(d2 & 1)
            k3 += (d3 >> 1) ^ -(d3 & 1)
            start += (dts >> 1) ^ -(dts & 1)
            end = NOW
        else:
            header = (first << 8) | buf[pos + 1]
            c2 = (header >> 11) & 0x3
            c3 = (header >> 9) & 0x3
            cts = (header >> 6) & 0x3
            cte = (header >> 4) & 0x3
            b2 = bits[c2]
            b3 = bits[c3]
            bts = bits[cts]
            bte = bits[cte]
            stop = pos + 2 + (
                (bits[(header >> 13) & 0x3] + b2 + b3 + bts + bte) >> 3
            )
            raw = from_bytes(buf[pos + 2 : stop], "big")
            te_raw = raw & masks[cte]
            raw >>= bte
            start = base_ts + (raw & masks[cts])
            raw >>= bts
            d3 = raw & masks[c3]
            raw >>= b3
            d2 = raw & masks[c2]
            d1 = raw >> b2
            d1 = (d1 >> 1) ^ -(d1 & 1)
            d2 = (d2 >> 1) ^ -(d2 & 1)
            d3 = (d3 >> 1) ^ -(d3 & 1)
            k1 = (k1 + d1) if header & 0x100 else base_v1 + d1
            k2 = (k2 + d2) if header & 0x8 else base_v2 + d2
            k3 = (k3 + d3) if header & 0x4 else base_v3 + d3
            te_flag = header & 0x3
            if te_flag == 0:
                end = NOW
            elif te_flag == 1:
                end = start + te_raw
            else:
                end = base_te + ((te_raw >> 1) ^ -(te_raw & 1))
        pos = stop
        append((pos, (k1, k2, k3), start, end))
    return out


def _clamped(records: list[tuple[int, Key, int, int]],
             start: int) -> list[LeafEntry]:
    """The entries of decoded ``records``, each start clamped to ``start``,
    its leaf's: a copy a version split made before copies started at the
    split keeps its entry's earlier start, which every read clamps to the
    leaf's lifetime anyway and which the leaf's bases cannot encode."""
    return [LeafEntry(key, ts if ts > start else start, end, None)
            for _, key, ts, end in records]


def _skip(buf: bytes, pos: int, count: int) -> int:
    """The offset ``count`` records past the record at ``pos``, by header
    lengths alone: nothing is decoded."""
    by_first = _LEN_BY_FIRST
    while count:
        count -= 1
        first = buf[pos]
        if first < 0x80:
            pos += _LEN_BY_SECOND[buf[pos + 1]]
        pos += by_first[first]
    return pos


def _compact_deltas(buf: bytes, pos: int) -> tuple[int, int, int, int]:
    """``(stop, d2, d3, dts)`` of the compact record at ``pos``: where it
    ends, and its ``v2``, ``v3`` and ``ts`` relative to its predecessor's
    (it shares ``v1`` and is live)."""
    first = buf[pos]
    c3 = (first >> 3) & 0x3
    cts = (first >> 1) & 0x3
    stop = pos + _LEN_BY_FIRST[first]
    raw = int.from_bytes(buf[pos + 1 : stop], "big")
    dts = raw & _MASK_OF_CODE[cts]
    raw >>= _BITS_OF_CODE[cts]
    d3 = raw & _MASK_OF_CODE[c3]
    d2 = raw >> _BITS_OF_CODE[c3]
    return (
        stop,
        (d2 >> 1) ^ -(d2 & 1),
        (d3 >> 1) ^ -(d3 & 1),
        (dts >> 1) ^ -(dts & 1),
    )


def scan_packed(
    buf_view: "memoryview | bytes | bytearray",
    key_low: Key,
    key_high: Key,
    t1: int,
    t2: int,
    node_start: int,
    node_death: int,
    base_v: tuple[int, int, int] = _FLOOR,
    base_ts: int = 0,
    out: list[tuple[Key, int, int, Any]] | None = None,
) -> list[tuple[Key, int, int, Any]]:
    """Range-interval scan directly over a packed leaf buffer.

    Walks the delta-encoded buffer once, maintaining the running decoded
    state ``(k1, k2, k3, ts)``, and evaluates the key-range predicate
    ``key_low <= key < key_high`` plus the lifetime-clamped interval
    predicate (``[start, end)`` clamped to ``[node_start, node_death)``
    must intersect ``[t1, t2)``) inline.  Only survivors materialize a
    ``(key, lo, hi, None)`` piece — filtered entries never become Python
    objects, which is what makes the packed buffer the operational form
    rather than a storage-only encoding (ROADMAP "scan-on-compressed").

    Emitted pieces are element-for-element identical, in identical order,
    to decoding the whole buffer and filtering (the legacy path); the
    hypothesis suite in ``tests/test_scan_packed.py`` pins this.
    """
    if out is None:
        out = []
    append = out.append
    buf = buf_view
    pos = 0
    size = len(buf)
    widths = _LEN_CODE_TO_BYTES
    base_v1, base_v2, base_v3 = base_v
    from_bytes = int.from_bytes
    k1 = k2 = k3 = start = 0
    examined = emitted = 0
    while pos < size:
        first = buf[pos]
        if first & 0x80:  # compact: shares v1, live, deltas vs prev
            pos += 1
            w = widths[(first >> 5) & 0x3]
            d2 = from_bytes(buf[pos : pos + w], "big")
            pos += w
            w = widths[(first >> 3) & 0x3]
            d3 = from_bytes(buf[pos : pos + w], "big")
            pos += w
            w = widths[(first >> 1) & 0x3]
            dts = from_bytes(buf[pos : pos + w], "big")
            pos += w
            k2 += (d2 >> 1) ^ -(d2 & 1)
            k3 += (d3 >> 1) ^ -(d3 & 1)
            start += (dts >> 1) ^ -(dts & 1)
            end = NOW
        else:
            header = (first << 8) | buf[pos + 1]
            pos += 2
            w = widths[(header >> 13) & 0x3]
            raw = from_bytes(buf[pos : pos + w], "big")
            pos += w
            d1 = (raw >> 1) ^ -(raw & 1)
            w = widths[(header >> 11) & 0x3]
            raw = from_bytes(buf[pos : pos + w], "big")
            pos += w
            d2 = (raw >> 1) ^ -(raw & 1)
            w = widths[(header >> 9) & 0x3]
            raw = from_bytes(buf[pos : pos + w], "big")
            pos += w
            d3 = (raw >> 1) ^ -(raw & 1)
            k1 = (k1 + d1) if header & 0x100 else base_v1 + d1
            k2 = (k2 + d2) if header & 0x8 else base_v2 + d2
            k3 = (k3 + d3) if header & 0x4 else base_v3 + d3
            w = widths[(header >> 6) & 0x3]
            start = base_ts + from_bytes(buf[pos : pos + w], "big")
            pos += w
            w = widths[(header >> 4) & 0x3]
            te_raw = from_bytes(buf[pos : pos + w], "big")
            pos += w
            te_flag = header & 0x3
            if te_flag == 0:
                end = NOW
            elif te_flag == 1:
                end = start + te_raw
            else:
                end = base_ts + ((te_raw >> 1) ^ -(te_raw & 1))
        examined += 1
        # Clamp to the node lifetime, then test the query region.
        lo = start if start > node_start else node_start
        hi = end if end < node_death else node_death
        if lo >= hi or lo >= t2 or t1 >= hi:
            continue
        key = (k1, k2, k3)
        if key < key_low or key >= key_high:
            continue
        emitted += 1
        append((key, lo, hi, None))
    if _metrics.ENABLED:
        _PACKED_SCANS.inc()
        _PACKED_SKIPPED.inc(examined - emitted)
    return out


class CompressedLeafStore:
    """Byte-buffer backend of a compressed MVBT leaf.

    In a packed tree a leaf *is* this buffer.  A live one also carries a
    **live index** for the write path — an :data:`_INDEX` record (key,
    start version, record ordinal) per live entry in buffer order, and a
    restart mark (a byte offset) every :data:`MARK_EVERY` records — handed
    over by the split that packed the leaf (:meth:`index`) or built by one
    decode walk on the first search after a load or restore (an append
    to a leaf without one leaves it unbuilt), kept current by
    :meth:`append` and :meth:`end_live`, dropped by :meth:`seal`.  The
    index is derived from the bytes: never serialized, not part of
    :meth:`sizeof`.  A hot store is charged to ``memo``, its tree's
    :class:`MemoTable` (None: standalone, never memoized).

    Its delta bases are references to its leaf's header objects,
    ``key_low`` (:data:`_FLOOR` for ``MIN_KEY``) and ``start``.
    """

    __slots__ = (
        "_buf",
        "count",
        "_low",
        "_start",
        "_last",
        "_decoded",
        "_uses",
        "memo",
        "_live",
        "_marks",
    )

    def __init__(self, entries: list[LeafEntry],
                 memo: MemoTable | None = None,
                 key_low: Key = MIN_KEY, start: int = MIN_TIME) -> None:
        self._buf = bytearray()
        self.count = 0
        self._decoded: tuple | None = None  # the resident flat form
        self._uses = 0
        self.memo = memo
        #: The live index (None until a write needs it): the records of
        #: the live entries (their key and start, all a version split or
        #: a delete needs of one: no decode), and the byte offset of
        #: record ``i * MARK_EVERY`` for every ``i`` up to and including
        #: the block the next append opens.
        self._live: bytearray | None = None
        self._marks: array | None = None
        self._low = key_low or _FLOOR
        self._start = start
        _check_key(self._low)
        top = 0
        for entry in entries:
            # The common case inline; the call raises for the rest.
            if entry.payload is not None or len(entry.key) != 3:
                check_packable(entry)
            k1, k2, k3 = entry.key
            if k1 > top or k2 > top or k3 > top:
                top = max(k1, k2, k3)
        _check_key((top, top, top))
        #: ``(key, start, end)`` of the last entry: what the next append
        #: delta-encodes against.
        self._last = _pack(self._buf, entries, None, *self._low, start)
        self.count = len(entries)

    def rebased(self, key_low: Key, start: int) -> "CompressedLeafStore":
        """This store's records, in buffer order, encoded against the
        header ``(key_low, start)`` (:func:`_clamped`); the new store's
        live index is unbuilt, and it is charged to the same memo."""
        return CompressedLeafStore(
            _clamped(self._records(), start), self.memo, key_low, start)

    def has_bases(self, key_low: Key, start: int) -> bool:
        """Whether this store's delta bases are the header ``(key_low,
        start)`` itself (``MVBT.check_invariants``)."""
        return self._low is (key_low or _FLOOR) and self._start is start

    # --------------------------------------------------------------- encode

    def append(self, entry: LeafEntry) -> None:
        """Delta-encode ``entry`` against the checkpoint (last) entry, or
        against the node bases alone in an empty buffer."""
        count = self.count
        if entry.payload is not None or len(entry.key) != 3:
            check_packable(entry)
        buf = self._buf
        self._last = _pack(buf, (entry,), self._last, *self._low, self._start)
        live = self._live
        if live is not None:
            if entry.end == NOW:
                k1, k2, k3 = entry.key  # no star-args: half the cost
                live += _INDEX.pack(k1, k2, k3, entry.start, count)
            if (count + 1) % MARK_EVERY == 0:
                self._marks.append(len(buf))  # where the next block opens
        self.count = count + 1
        self.invalidate()

    # --------------------------------------------------------------- decode

    def _records(self) -> list[tuple[int, Key, int, int]]:
        # ``bytes`` indexes and slices measurably faster than a
        # ``bytearray`` or ``memoryview`` in the decoder's hot loop.  A
        # sealed buffer already is ``bytes`` (no copy); a live one is
        # copied, one memcpy of a buffer that is never large.
        start = self._start
        return _records(bytes(self._buf), self._low, start, start)

    def flat(self) -> tuple:
        """The records as one flat tuple ``(key0, start0, end0, key1, …)``
        in buffer order — what scans and joins read when not packed.

        A hot leaf's is resident.  Otherwise the buffer is decoded (a
        use); at ``HOT_USES`` uses, while its table has room, the decode
        is interned and kept (:meth:`MemoTable.admit`).  Cold leaves
        scan packed, so a mostly-cold index keeps nothing expanded; index
        sizes are layout bytes and exclude the memo.
        """
        flat = self._decoded
        if flat is not None:
            return flat
        self._uses += 1
        records = self._records()
        if _metrics.ENABLED:
            _PAGES_DECODED.inc()
            _ENTRIES_DECODED.inc(len(records))
            _BYTES_DECODED.inc(len(self._buf))
        memo = self.memo
        if (memo is not None and self._uses >= HOT_USES
                and memo.has_room(len(records))):
            return memo.admit(self, records)
        return tuple([x for _, key, start, end in records
                      for x in (key, start, end)])

    def entries(self) -> tuple[LeafEntry, ...]:
        """Every record as a fresh :class:`LeafEntry`, read through
        :meth:`flat`; the entry objects themselves are never kept."""
        it = iter(self.flat())
        return tuple([LeafEntry(*row, None) for row in zip(it, it, it)])

    def invalidate(self) -> None:
        """Drop the resident form and return its charge to the table: the
        bytes were edited, or the leaf stops being a store."""
        if self._decoded is not None:
            self.memo.release(self)

    # ----------------------------------------------------------------- scan

    def wants_packed(self) -> bool:
        """Whether a scan of this leaf should run over the packed buffer.

        ``PACKED_FORCE`` always scans packed, ``PACKED_OFF`` never does;
        in the adaptive default a scan goes packed unless the decoded
        form is resident or the next decode would admit it (the impending
        use makes the leaf hot and its table has room: an unlocked check
        that :meth:`MemoTable.admit` repeats).
        """
        mode = _PACKED_MODE
        if mode == PACKED_AUTO:
            if self._decoded is not None:
                return False
            memo = self.memo
            return not (memo is not None and self._uses + 1 >= HOT_USES
                        and memo.has_room(self.count))
        return mode == PACKED_FORCE

    def scan_packed(
        self,
        key_low: Key,
        key_high: Key,
        t1: int,
        t2: int,
        node_start: int,
        node_death: int,
        out: list[tuple[Key, int, int, Any]] | None = None,
    ) -> list[tuple[Key, int, int, Any]]:
        """:func:`scan_packed` over this store's buffer and base values."""
        self._uses += 1
        # ``bytes`` for the same reason as in :meth:`_records`.
        return scan_packed(
            bytes(self._buf), key_low, key_high, t1, t2,
            node_start, node_death, self._low, self._start, out,
        )

    # ------------------------------------------------------------- mutation

    def index(self, entries: list[LeafEntry]) -> None:
        """Take the live index from ``entries``, which the buffer was just
        packed from: a leaf born from a split is written to at once and
        need not decode what its maker had in hand."""
        self._set_index([(e.key, e.start, e.end) for e in entries])

    def _set_index(self, rows: list[tuple[Key, int, int]]) -> None:
        """Build the live index from ``rows``, the ``(key, start, end)``
        of every record in buffer order."""
        self._live = bytearray().join([
            _INDEX.pack(k1, k2, k3, start, ordinal)
            for ordinal, ((k1, k2, k3), start, end) in enumerate(rows)
            if end == NOW
        ])
        buf = bytes(self._buf)
        marks = array("I", [0])
        for _ in range(len(rows) // MARK_EVERY):
            marks.append(_skip(buf, marks[-1], MARK_EVERY))
        self._marks = marks

    def rows(self) -> list[tuple[Key, int, int]]:
        """``(key, start, end)`` of every record in buffer order, decoded
        past the read memo: its use count and budget are not involved."""
        return [row[1:] for row in self._records()]

    def _walk_index(self) -> bytearray:
        """Build the live index by the one full decode walk a loaded or
        restored leaf pays in a process (none if it is never written)."""
        self._set_index(self.rows())
        if _metrics.ENABLED:
            _SEEK_RECORDS.inc(self.count)
        return self._live

    def seal(self) -> None:
        """Drop the live index and append checkpoint, and freeze the buffer
        as ``bytes``: the leaf died and takes no more writes (a sealed leaf
        is its byte buffer and nothing else; its reads stop copying it)."""
        self._live = self._marks = self._last = None
        self._buf = bytes(self._buf)

    def check_index(self, sealed: bool) -> None:
        """Assert the live index is gone from a ``sealed`` leaf and
        otherwise, if built, is what a full decode of the bytes gives
        (``MVBT.check_invariants``)."""
        if self._live is None:
            return
        assert not sealed, "live index outlived its leaf"
        records = self._records()
        assert (
            list(_INDEX.iter_unpack(self._live)) == [
                (*key, start, ordinal)
                for ordinal, (_, key, start, end) in enumerate(records)
                if end == NOW
            ]
            and self._marks.tolist() == [0] + [
                stop for stop, _, _, _ in records[MARK_EVERY - 1::MARK_EVERY]
            ]
        ), "live index drifted from the leaf's bytes"

    def _find(self, key: Key) -> int:
        """Offset of ``key``'s record in the live index, or -1 (a hit
        counts only record-aligned; an unpackable key is not live)."""
        live = self._live
        if live is None:
            live = self._walk_index()
        try:
            probe = _KEY.pack(*key)
        except struct.error:
            return -1
        at = live.find(probe)
        while at > 0 and at % _INDEX.size:
            at = live.find(probe, at + 1)
        return at

    def has_live(self, key: Key) -> bool:
        """Whether ``key`` has a live entry (the insert path's duplicate
        check): a probe of the live index, which leaves the read memo and
        its use count alone."""
        return self._find(key) >= 0

    def live_start(self, key: Key) -> int | None:
        """Start version of the live ``key`` entry, or ``None``: the probe
        of :meth:`has_live` (the engine's write check)."""
        at = self._find(key)
        return None if at < 0 else _INDEX.unpack_from(self._live, at)[3]

    def live_entries(self) -> list[LeafEntry]:
        """Fresh copies of the live entries in buffer order — what a
        version split carries over — read off the live index: nothing is
        decoded again and the read memo is not involved."""
        live = self._live
        if live is None:
            live = self._walk_index()
        return [
            LeafEntry((k1, k2, k3), start, NOW, None)
            for k1, k2, k3, start, _ in _INDEX.iter_unpack(live)
        ]

    def live_keys(self, key_low: Key, key_high: Key) -> list[Key]:
        """The live keys in ``[key_low, key_high)``, in buffer order, read
        off the live index like :meth:`live_entries`."""
        live = self._live
        if live is None:
            live = self._walk_index()
        return [
            (k1, k2, k3) for k1, k2, k3, _, _ in _INDEX.iter_unpack(live)
            if key_low <= (k1, k2, k3) < key_high
        ]

    def index_bytes(self) -> int:
        """Bytes the live index holds (0 when unbuilt or sealed)."""
        if self._live is None:
            return 0
        return len(self._live) + self._marks.itemsize * len(self._marks)

    def end_live(self, key: Key, end: int) -> bool:
        """Set the end version of the live ``key`` entry by rewriting the
        two records that can change and splicing them in (Section 4.2.2).

        The live index names the record and its start version; from the
        restart mark before it at most ``MARK_EVERY - 1`` headers are
        stepped over to reach it, and nothing before it is decoded.  An
        entry's encoding depends only on itself, its immediate
        predecessor and the node base values, so ending an entry changes
        its own bytes and at most its successor's; every other byte stays
        where it is, and the result equals a full re-encode of the
        post-delete sequence:

        * a normal target keeps its key and start bytes and gains the
          ``te`` field (two header fields and the trailing bytes);
        * a compact target or follower — compact needs the entry and its
          predecessor both live — is re-encoded as a normal record.  Its
          own deltas give all that takes: a compact record shares ``v1``
          with its predecessor and holds ``v2``, ``v3`` and ``ts``
          relative to it.

        Later marks move by the change in length.  Nothing is written to
        the resident flat tuple, so a reader holding it keeps seeing the
        pre-delete state; the memo is invalidated after the splice.
        """
        found = self._find(key)
        if found < 0:
            return False
        k1, k2, k3, start, ordinal = _INDEX.unpack_from(self._live, found)
        buf = bytes(self._buf)
        base_ts = self._start
        mark, skip = divmod(ordinal, MARK_EVERY)
        at = _skip(buf, self._marks[mark], skip)
        prev = ended = (key, start, end)
        patch = bytearray()
        redo = []
        if buf[at] & 0x80:
            stop, d2, d3, _ = _compact_deltas(buf, at)
            prev = ((k1, k2 - d2, k3 - d3), 0, NOW)
            redo.append(LeafEntry(key, start, end, None))
        else:
            stop = _skip(buf, at, 1)
            flag, value = _end_field(start, end, base_ts)
            try:
                code = _CODE_OF_BITS[value.bit_length()]
            except IndexError:
                raise CompressionError("delta too large to encode") from None
            patch += buf[at:stop]
            patch[1] |= (code << 4) | flag
            patch += value.to_bytes(_LEN_CODE_TO_BYTES[code], "big")
        seen = skip + 1
        last = ordinal + 1 == self.count
        if not last and buf[stop] & 0x80:
            seen += 1
            stop, d2, d3, dts = _compact_deltas(buf, stop)
            redo.append(
                LeafEntry((k1, k2 + d2, k3 + d3), start + dts, NOW, None)
            )
        if redo:
            _pack(patch, redo, prev, *self._low, base_ts)
        # Nothing above mutates: an end the codec cannot hold has raised.
        if last:
            self._last = ended
        shift = len(patch) - (stop - at)
        self._buf[at:stop] = patch
        marks = self._marks
        marks[mark + 1:] = array("I", [o + shift for o in marks[mark + 1:]])
        if skip + 1 == MARK_EVERY:
            # The next mark is the follower's: right behind the rewritten
            # target, wherever the splice as a whole ends.
            marks[mark + 1] = at + _skip(patch, 0, 1)
        del self._live[found:found + _INDEX.size]
        if _metrics.ENABLED:
            _SEEK_RECORDS.inc(seen)
        self.invalidate()
        return True

    def sizeof(self) -> int:
        """Storage-layout size: buffer plus node header (the bases)."""
        return NODE_HEADER_BYTES + len(self._buf)

    # -------------------------------------------------------- serialization

    def to_state(self) -> dict:
        """Plain-data state for snapshots: the raw buffer and the append
        checkpoint (None once sealed); the bases are the node's header,
        which the node's own state carries."""
        return {
            "buf": bytes(self._buf),
            "count": self.count,
            "last_entry": self._last,
        }

    @classmethod
    def from_state(cls, state: dict, key_low: Key = MIN_KEY,
                   start: int = MIN_TIME) -> "CompressedLeafStore":
        """The store of a saved leaf whose header is ``(key_low, start)``.
        A leaf saved with bases of its own (snapshot formats 1 and 2) is
        decoded against them and re-encoded against the header, its starts
        clamped (:func:`_clamped`)."""
        if "base_v" in state:
            records = _records(bytes(state["buf"]), tuple(state["base_v"]),
                               state["base_ts"], state["base_te"])
            return cls(_clamped(records, start), None, key_low, start)
        store = cls.__new__(cls)
        store._decoded = None
        store._uses = 0
        store.memo = None  # the tree attaches its table (MVBT.compress)
        store._buf = bytearray(state["buf"])
        store.count = state["count"]
        store._low = key_low or _FLOOR
        store._start = start
        last = state["last_entry"]  # older states' "checkpoint_ts": unread
        store._last = (
            None if last is None else (tuple(last[0]), last[1], last[2])
        )
        store._live = store._marks = None
        return store
