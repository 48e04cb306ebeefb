"""Delta compression of MVBT leaf nodes (Section 4.2, Figure 3(a)).

An uncompressed MVBT entry for temporal RDF holds five values
``(v1, v2, v3, ts, te)``.  The compressed store keeps per-node *base values*
(the minima at compression time) and encodes each entry as:

``[header][key block][time block]``

**Normal header** — 2 bytes::

    bit 15    H flag = 0 (normal)
    bits 14-13  l1   byte-length code of v1 delta   } 7-bit key payload
    bits 12-11  l2   byte-length code of v2 delta   }
    bits 10-9   l3   byte-length code of v3 delta   }
    bit  8      src1 v1 delta vs predecessor (1) or node minimum (0)
    bits 7-6    lts  byte-length code of ts delta   } 6-bit time payload
    bits 5-4    lte  byte-length code of te value   }
    bit  3      src2 (delta source flag of v2)
    bit  2      src3 (delta source flag of v3)
    bits 1-0    te flag: 0 = live (te empty), 1 = short interval
                (te stored as interval length), 2 = delta vs node min te

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
delta against the node minimum in normal entries (entries arrive in
nondecreasing start order, so the *checkpoint* — the position and value of the
entry with the largest ts — lets appends encode without rescanning).

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
(:class:`CompressedLeafStore`) so the duplicate check is a dict probe and a
delete steps from the nearest restart mark to its record and rewrites it in
place instead of decoding the leaf from its first byte.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from typing import Any, Iterable

from ..model.time import NOW
from ..obs import metrics as _metrics
from .entry import Key, LeafEntry

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

#: Per-node header: lifetime, key_low, link and bookkeeping words.
NODE_HEADER_BYTES = 64

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

    ``RDFTX`` hands one to its four trees (a standalone ``MVBT`` makes its
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
    """Raise :class:`CompressionError` unless the codec can hold ``entry``
    (a 3-part key, no payload)."""
    if entry.payload is not None:
        raise CompressionError("compressed leaves carry no payloads")
    if len(entry.key) != 3:
        raise CompressionError("compressed leaves need 3-part keys")


def _end_field(start: int, end: int, base_te: int) -> tuple[int, int]:
    """The ``(te flag, te value)`` of an ended entry: its interval length
    when that is short, else the zigzagged delta against the node's base
    end."""
    if end - start <= SHORT_INTERVAL_LIMIT:
        return 1, end - start
    d = end - base_te
    return 2, d << 1 if d >= 0 else ~(d << 1)


def _pack(
    buf: bytearray,
    entries: Iterable[LeafEntry],
    prev: "tuple[Key, int, int] | None",
    base_v1: int,
    base_v2: int,
    base_v3: int,
    base_ts: int,
    base_te: int,
) -> "tuple[Key, int, int] | None":
    """Delta-encode ``entries`` onto the end of ``buf`` — the one encoder.

    ``prev`` is the ``(key, start, end)`` of the entry the first one
    follows (``None`` at the head of a buffer); the return value is the
    same triple for the last entry written, i.e. the append checkpoint.
    An entry's bytes depend only on itself, its predecessor and the node
    bases, so building a leaf, appending to it and re-encoding a slice of
    it (:meth:`CompressedLeafStore.end_live`) are all this loop.  Each
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
                raise CompressionError(
                    "entries must arrive in nondecreasing ts"
                )
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
                    flag, te_value = _end_field(ts, te, base_te)
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
    ``stop`` being the offset one past the entry's last byte.

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
    base_v: tuple[int, int, int] = (0, 0, 0),
    base_ts: int = 0,
    base_te: int = 0,
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
                end = base_te + ((te_raw >> 1) ^ -(te_raw & 1))
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
    **live index** for the write path — ``key -> record ordinal`` of its
    live entries, every record's start version by ordinal, and a restart
    mark (a byte offset) every :data:`MARK_EVERY` records — handed over by
    the split that packed the leaf (:meth:`index`) or built by one decode
    walk on the first write after a load or restore, kept current by
    :meth:`append` and :meth:`end_live`, dropped by :meth:`seal`.  The
    index is derived from the bytes: never serialized, not part of
    :meth:`sizeof`.  A hot store is charged to ``memo``, its tree's
    :class:`MemoTable` (None: standalone, never memoized).
    """

    __slots__ = (
        "_buf",
        "count",
        "_base_v",
        "_base_ts",
        "_base_te",
        "_checkpoint_ts",
        "_last",
        "_decoded",
        "_uses",
        "memo",
        "_live",
        "_starts",
        "_marks",
    )

    def __init__(self, entries: list[LeafEntry],
                 memo: MemoTable | None = None) -> None:
        self._buf = bytearray()
        self.count = 0
        self._decoded: tuple | None = None  # the resident flat form
        self._uses = 0
        self.memo = memo
        #: The live index (all None until a write needs it): ``key ->
        #: ordinal`` of the live records; the start version of every
        #: record by ordinal (with the key, all a version split or a
        #: delete needs of a live entry: no decode); and the byte offset
        #: of record ``i * MARK_EVERY`` for every ``i`` up to and
        #: including the block the next append opens.
        self._live: dict[Key, int] | None = None
        self._starts: array | None = None
        self._marks: list[int] | None = None
        self._rebase(entries)
        #: ``(key, start, end)`` of the last entry: what the next append
        #: delta-encodes against.
        self._last = _pack(
            self._buf, entries, None,
            *self._base_v, self._base_ts, self._base_te,
        )
        self.count = len(entries)

    def _rebase(self, entries: Iterable[LeafEntry]) -> None:
        """Take the node bases (minima; ``base_te`` over the finite ends
        only) and the checkpoint (largest ts) from ``entries``, the first
        contents of an empty buffer, in one pass."""
        base_v1 = base_v2 = base_v3 = base_ts = top_ts = 0
        base_te = NOW
        first = True
        for entry in entries:
            # The common case inline; the call raises for the rest.
            if entry.payload is not None or len(entry.key) != 3:
                check_packable(entry)
            k1, k2, k3 = entry.key
            ts = entry.start
            if first:
                first = False
                base_v1, base_v2, base_v3 = k1, k2, k3
                base_ts = top_ts = ts
            else:
                if k1 < base_v1:
                    base_v1 = k1
                if k2 < base_v2:
                    base_v2 = k2
                if k3 < base_v3:
                    base_v3 = k3
                if ts < base_ts:
                    base_ts = ts
                elif ts > top_ts:
                    top_ts = ts
            if entry.end < base_te:
                base_te = entry.end
        self._base_v = (base_v1, base_v2, base_v3)
        self._base_ts = base_ts
        self._base_te = 0 if base_te == NOW else base_te
        self._checkpoint_ts = top_ts

    # --------------------------------------------------------------- encode

    def append(self, entry: LeafEntry) -> None:
        """Delta-encode ``entry`` against the checkpoint (last) entry; the
        first entry of an empty buffer brings the node bases with it."""
        count = self.count
        if count:
            if entry.payload is not None or len(entry.key) != 3:
                check_packable(entry)
        else:
            self._rebase((entry,))
        buf = self._buf
        self._last = _pack(
            buf, (entry,), self._last,
            *self._base_v, self._base_ts, self._base_te,
        )
        start = entry.start
        if start > self._checkpoint_ts:
            self._checkpoint_ts = start
        live = self._live
        if live is not None:
            if entry.end == NOW:
                live[entry.key] = count
            self._starts.append(start)
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
        return _records(
            bytes(self._buf), self._base_v, self._base_ts, self._base_te
        )

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
            node_start, node_death,
            self._base_v, self._base_ts, self._base_te, out,
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
        self._live = {
            key: ordinal
            for ordinal, (key, _, end) in enumerate(rows) if end == NOW
        }
        self._starts = array("q", [start for _, start, _ in rows])
        buf = bytes(self._buf)
        marks = [0]
        for _ in range(len(rows) // MARK_EVERY):
            marks.append(_skip(buf, marks[-1], MARK_EVERY))
        self._marks = marks

    def rows(self) -> list[tuple[Key, int, int]]:
        """``(key, start, end)`` of every record in buffer order, decoded
        past the read memo: its use count and budget are not involved."""
        return [row[1:] for row in self._records()]

    def _walk_index(self) -> dict[Key, int]:
        """Build the live index by the one full decode walk a loaded or
        restored leaf pays in a process (none if it is never written)."""
        self._set_index(self.rows())
        if _metrics.ENABLED:
            _SEEK_RECORDS.inc(self.count)
        return self._live

    def seal(self) -> None:
        """Drop the live index and freeze the buffer as ``bytes``: the leaf
        died and takes no more writes (a sealed leaf is its byte buffer
        and nothing else, and its reads stop copying it)."""
        self._live = self._starts = self._marks = None
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
            self._live == {
                key: ordinal
                for ordinal, (_, key, _, end) in enumerate(records)
                if end == NOW
            }
            and list(self._starts) == [start for _, _, start, _ in records]
            and self._marks == [0] + [
                stop for stop, _, _, _ in records[MARK_EVERY - 1::MARK_EVERY]
            ]
        ), "live index drifted from the leaf's bytes"

    def has_live(self, key: Key) -> bool:
        """Whether ``key`` has a live entry (the insert path's duplicate
        check): a probe of the live index, which leaves the read memo and
        its use count alone."""
        live = self._live
        if live is None:
            live = self._walk_index()
        return key in live

    def live_start(self, key: Key) -> int | None:
        """Start version of the live ``key`` entry, or ``None``: the probe
        of :meth:`has_live` (the service's update validation)."""
        live = self._live
        if live is None:
            live = self._walk_index()
        ordinal = live.get(key)
        return None if ordinal is None else self._starts[ordinal]

    def live_entries(self) -> list[LeafEntry]:
        """Fresh copies of the live entries in buffer order — what a
        version split carries over — read off the live index: nothing is
        decoded again and the read memo is not involved."""
        live = self._live
        if live is None:
            live = self._walk_index()
        starts = self._starts
        return [
            LeafEntry(key, starts[ordinal], NOW, None)
            for key, ordinal in live.items()
        ]

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
        live = self._live
        if live is None:
            live = self._walk_index()
        ordinal = live.get(key)
        if ordinal is None:
            return False
        buf = bytes(self._buf)
        base_te = self._base_te
        start = self._starts[ordinal]
        mark, skip = divmod(ordinal, MARK_EVERY)
        at = _skip(buf, self._marks[mark], skip)
        k1, k2, k3 = key
        prev = ended = (key, start, end)
        patch = bytearray()
        redo = []
        if buf[at] & 0x80:
            stop, d2, d3, _ = _compact_deltas(buf, at)
            prev = ((k1, k2 - d2, k3 - d3), 0, NOW)
            redo.append(LeafEntry(key, start, end, None))
        else:
            stop = _skip(buf, at, 1)
            flag, value = _end_field(start, end, base_te)
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
            _pack(patch, redo, prev, *self._base_v, self._base_ts, base_te)
        # Nothing above mutates: an end the codec cannot hold has raised.
        if last:
            self._last = ended
        shift = len(patch) - (stop - at)
        self._buf[at:stop] = patch
        marks = self._marks
        marks[mark + 1:] = [offset + shift for offset in marks[mark + 1:]]
        if skip + 1 == MARK_EVERY:
            # The next mark is the follower's: right behind the rewritten
            # target, wherever the splice as a whole ends.
            marks[mark + 1] = at + _skip(patch, 0, 1)
        del live[key]
        if _metrics.ENABLED:
            _SEEK_RECORDS.inc(seen)
        self.invalidate()
        return True

    def sizeof(self) -> int:
        """Storage-layout size: buffer plus node header and base values."""
        return NODE_HEADER_BYTES + 5 * 8 + len(self._buf)

    # -------------------------------------------------------- serialization

    def to_state(self) -> dict:
        """Plain-data state for snapshots: the raw buffer plus the base
        values and append checkpoint, so a restored store encodes future
        appends identically to the original."""
        return {
            "buf": bytes(self._buf),
            "count": self.count,
            "base_v": self._base_v,
            "base_ts": self._base_ts,
            "base_te": self._base_te,
            "checkpoint_ts": self._checkpoint_ts,
            "last_entry": self._last,
        }

    @classmethod
    def from_state(cls, state: dict) -> "CompressedLeafStore":
        store = cls.__new__(cls)
        store._decoded = None
        store._uses = 0
        store.memo = None  # the tree attaches its table (MVBT.compress)
        store._buf = bytearray(state["buf"])
        store.count = state["count"]
        store._base_v = tuple(state["base_v"])
        store._base_ts = state["base_ts"]
        store._base_te = state["base_te"]
        store._checkpoint_ts = state["checkpoint_ts"]
        last = state["last_entry"]
        store._last = (
            None if last is None else (tuple(last[0]), last[1], last[2])
        )
        store._live = store._starts = store._marks = None
        return store
