"""Compressed MVSBT (Sections 6.2.2 - 6.3, Figures 6 and 7).

The CMVSBT estimates dominance sums (points with key <= k and time <= t)
with *sum-over-left* query semantics, exactly as Section 6.3 describes: a
query walks root to leaf and, in every node, accumulates the approximate
value of **all** entries whose time band contains ``t`` and whose key range
starts at or below ``k``; the entry containing the query point routes the
descent (and is the only one counted partially, by the coverage ratio).

This is what makes the structure *compressed*: a point's mass lives in
exactly one leaf entry per time band (where it was inserted) plus one index
entry per level (the child it descended through), so an insertion buffers
O(height) updates — there is no per-point fan-out to the right.

Entry state:

* **Leaf entry** ``<ks, ke, ts, te, km, tm, v, c>`` (the paper's layout):
  ``v`` is the *settled* mass — points of this key range whose times precede
  the band (every in-band query dominates them in time), spread over
  ``[ks, kb]``; ``c`` counts the *current* points, bounded by the corner
  ``(km, tm)``.  When ``c`` reaches ``cm``, the entry splits at the corner
  (Figure 6 / Figure 7) and the mass settles into the new band's entries.
* **Index entry** ``<ks, ke, ts, te, list, ptr, c>``: ``c`` is the settled
  subtree mass; ``list`` buffers the last inserted points exactly and is
  flushed into a vertical split when ``lm`` accumulate.  The closed lower
  band folds its list into a uniform in-band estimate (``cr``) instead of
  keeping it forever — with ``lm = 1`` the fold is exact because the single
  flushed point sits at the band edge.

With ``cm = lm = 1`` every split happens at a real point and estimates are
exact, the equivalence with the MVSBT that the paper claims.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterator

from .tree import INF


@dataclass
class CLeafEntry:
    """CMVSBT leaf entry; see module docstring for field semantics."""

    ks: float
    ke: float
    ts: float
    te: float
    km: float
    tm: float
    v: float = 0.0
    c: float = 0.0
    #: upper key bound of the settled mass ``v`` (for the containing-entry
    #: coverage ratio).
    kb: float = 0.0


@dataclass
class CIndexEntry:
    """CMVSBT index entry; see module docstring for field semantics."""

    ks: float
    ke: float
    ts: float
    te: float
    points: list[tuple[int, int, float]] = field(default_factory=list)
    child: "_CNode | None" = None
    c: float = 0.0
    #: mass folded out of a flushed list, uniform over this (closed) band.
    cr: float = 0.0


@dataclass
class _CNode:
    is_leaf: bool
    entries: list = field(default_factory=list)
    #: The entries with ``te == INF``, in ``entries`` order.  Points arrive
    #: in non-decreasing time, so only these can cover a new one.
    live: list = field(default_factory=list)
    #: Leaf nodes: the band-profile segments that end at or before the
    #: oldest live band.  Only closed entries reach that far back and a
    #: closed leaf entry never changes, so neither do these.
    frozen: list = field(default_factory=list)
    #: Leaf nodes: ``entries[:settled]`` all closed inside ``frozen``.
    settled: int = 0
    #: Leaf nodes: the entry count at which no key boundary could split
    #: the node.  A leaf's boundaries change only when it gains entries.
    stuck: int = -1

    def adopt(self, entries: list) -> None:
        """Append entries, tracking the live ones."""
        self.entries.extend(entries)
        self.live.extend(e for e in entries if e.te == INF)


class CMVSBT:
    """The compressed temporal aggregate index used as a histogram bucket
    structure.

    ``cm`` and ``lm`` are the leaf/index point thresholds; raising them
    coarsens the histogram (the engine raises them when the histogram
    exceeds its space budget, Section 6.2.2).
    """

    def __init__(self, cm: int = 8, lm: int = 8, node_capacity: int = 32) -> None:
        if cm < 1 or lm < 1:
            raise ValueError("cm and lm must be at least 1")
        self.cm = cm
        self.lm = lm
        self._capacity = node_capacity
        self._root = _CNode(is_leaf=True)
        self._root.adopt([CLeafEntry(0, INF, 0, INF, km=0, tm=0)])
        self._last_time = 0
        self._count = 0
        #: :meth:`sizeof`, kept current by every change of an entry or a
        #: buffered list.
        self._bytes = self._entry_bytes(self._root.entries[0])
        #: Entries touched by insert routing and band profiling — the work
        #: an insert does beyond its own O(height) updates.
        self.entries_examined = 0

    @property
    def point_count(self) -> int:
        return self._count

    # --------------------------------------------------------------- insert

    def insert(self, key: int, time: int, weight: float = 1.0) -> None:
        """Insert a point (nondecreasing time order)."""
        if time < self._last_time:
            raise ValueError(
                f"point at {time} after watermark {self._last_time}"
            )
        self._last_time = time
        self._count += 1
        node = self._root
        path = [node]
        while True:
            # Record the point in the live entry containing it and descend
            # through it (the containment test inline: this is the
            # per-point loop of every histogram build).
            for examined, entry in enumerate(node.live, 1):
                if entry.ks <= key < entry.ke and entry.ts <= time < entry.te:
                    self.entries_examined += examined
                    break
            else:
                break
            if node.is_leaf:
                # Count the point; the entry splits once it holds cm.
                entry.c += weight
                if key > entry.km:
                    entry.km = key
                if time > entry.tm:
                    entry.tm = time
                if entry.c >= self.cm:
                    fresh = self._leaf_entry_split(entry, weight)
                    if entry.te != INF:
                        node.live.remove(entry)
                    if fresh:
                        node.adopt(fresh)
                        self._bytes += sum(map(self._entry_bytes, fresh))
                break
            child = entry.child
            self._index_entry_insert(node, entry, key, time, weight)
            node = child
            path.append(node)
        for depth in range(len(path) - 1, -1, -1):
            size = len(path[depth].entries)
            if size <= self._capacity or size == path[depth].stuck:
                continue
            parent = path[depth - 1] if depth > 0 else None
            self._split_node(path[depth], parent)

    def _leaf_entry_split(
        self, entry: CLeafEntry, weight: float
    ) -> list[CLeafEntry]:
        """Figure 6, leafEntrySplit: the current mass of ``entry`` has
        just reached ``cm`` with a point of ``weight``."""
        mass = entry.c
        rest = max(mass - weight, 0.0)
        fresh: list[CLeafEntry] = []
        tm_inner = entry.ts < entry.tm < entry.te
        km_inner = entry.ks < entry.km < entry.ke
        if tm_inner:
            settled = entry.v + mass  # everything precedes the new band
            if km_inner:
                # Three-way split around the corner (Figures 5 and 7): the
                # corner point settles exactly at km; the residual and the
                # previously settled mass split by the uniformity ratio.
                left_share = (
                    entry.v * self._kb_ratio(entry, entry.km) + rest / 2
                )
                fresh.append(
                    CLeafEntry(entry.ks, entry.km, entry.tm, entry.te,
                               km=entry.ks, tm=entry.tm,
                               v=left_share, kb=entry.km)
                )
                fresh.append(
                    CLeafEntry(entry.km, entry.ke, entry.tm, entry.te,
                               km=entry.km, tm=entry.tm,
                               v=settled - left_share, kb=entry.km)
                )
            else:
                fresh.append(
                    CLeafEntry(entry.ks, entry.ke, entry.tm, entry.te,
                               km=entry.ks, tm=entry.tm,
                               v=settled,
                               kb=max(entry.kb, min(entry.km, entry.ke)))
                )
            entry.te = entry.tm
            entry.c = rest
            return fresh
        # tm on the band border: split by key only (all current points share
        # one chronon).
        if km_inner:
            right_share = (
                entry.v * (1 - self._kb_ratio(entry, entry.km))
                + rest / 2
                + weight
            )
            fresh.append(
                CLeafEntry(entry.km, entry.ke, entry.ts, entry.te,
                           km=entry.km, tm=entry.ts,
                           v=right_share, kb=entry.km)
            )
            entry.v = entry.v + mass - right_share
            entry.kb = min(entry.kb, entry.km)
            entry.ke = entry.km
            entry.c = 0.0
            entry.km = entry.ks
            entry.tm = entry.ts
        else:
            # Degenerate: fold everything into the settled mass.
            entry.v += mass
            entry.kb = max(entry.kb, min(entry.km, entry.ke))
            entry.c = 0.0
            entry.km = entry.ks
            entry.tm = entry.ts
        return fresh

    @staticmethod
    def _kb_ratio(entry: CLeafEntry, key: float) -> float:
        """Fraction of the settled mass with keys at or below ``key``."""
        bound = entry.kb
        if bound <= entry.ks or key >= bound:
            return 1.0
        if key <= entry.ks:
            return 0.0
        return (key - entry.ks) / (bound - entry.ks)

    def _index_entry_insert(
        self, node: _CNode, entry: CIndexEntry, key: int, time: int,
        weight: float
    ) -> None:
        """Buffer the point on the routing entry (Figure 6, indexEntrySplit).

        The buffered list keeps entirely-left queries exact between
        flushes; when ``lm`` points accumulate, all summaries for this
        child are rebuilt from the child's *band profile* (the step
        function of its visible mass over time), which is how the index
        level stays both compressed and time-resolved.
        """
        entry.points.append((key, time, weight))
        self._bytes += 24
        if len(entry.points) >= self.lm:
            self._refresh_child_summaries(node, entry.child)

    @property
    def max_segments(self) -> int:
        """Band-profile segments per child summary, sized so one split's
        summaries (two children) cannot immediately overflow the parent."""
        return max(3, min(8, self._capacity // 8))

    def _refresh_child_summaries(self, node: _CNode, child: "_CNode") -> None:
        """Replace every summary entry for ``child`` with fresh profile
        segments (buffered lists reset)."""
        own = [entry for entry in node.entries if entry.child is child]
        key_low = min(entry.ks for entry in own)
        key_high = max(entry.ke for entry in own)
        self._replace_summaries(
            node, child, self._profile_entries(child, key_low, key_high)
        )

    def _replace_summaries(self, node: _CNode, child: _CNode,
                           summaries: list[CIndexEntry]) -> None:
        """Index nodes: swap every summary entry of ``child`` for fresh
        ones."""
        kept = []
        for entry in node.entries:
            if entry.child is child:
                self._bytes -= self._entry_bytes(entry)
            else:
                kept.append(entry)
        node.entries = kept
        node.live = [e for e in node.live if e.child is not child]
        node.adopt(summaries)
        self._bytes += sum(map(self._entry_bytes, summaries))

    def _profile_entries(
        self, child: "_CNode", key_low: float, key_high: float
    ) -> list[CIndexEntry]:
        """Summary entries encoding the child's visible-mass profile.

        The visible mass at query time ``t`` is the sum over the child's
        band-matching entries of their full value; it is a piecewise-linear
        function of ``t`` (settled steps plus uniform ramps), encoded as
        one index entry per segment: ``c`` is the value at the segment
        start and ``cr`` the growth across it.
        """
        segments = self._band_profile(child)
        if len(segments) > self.max_segments:
            segments = self._quantize(segments)
        return [
            CIndexEntry(key_low, key_high, ts, te, points=[], child=child,
                        c=base, cr=growth)
            for ts, te, base, growth in segments
        ]

    def _band_profile(self, child: "_CNode") -> list[tuple]:
        """(ts, te, base, growth) segments of the child's visible mass.

        A leaf that cannot key-split accumulates closed bands without
        bound, so its profile is kept incrementally: the segments in
        ``child.frozen`` are reused, the entries before ``child.settled``
        (closed inside them) are skipped, and whatever this call finds
        behind the oldest live band is frozen in turn.  New entries start
        at a live entry's ``tm``, so no cut ever appears behind that band.
        Such a leaf holds one key range, so it has one live entry, and the
        frozen segments are merged down (:meth:`_quantize`) whenever they
        outnumber the node capacity: a refresh costs the same at any
        history length.  Index children are profiled by
        :meth:`_index_profile`.
        """
        if not child.is_leaf:
            return self._index_profile(child)
        frozen = child.frozen
        start = frozen[-1][1] if frozen else 0.0
        entries = child.entries[child.settled:]
        cuts = {start, INF}
        for entry in entries:
            cuts.add(entry.ts)
            cuts.add(entry.te)
            if entry.c and entry.ts < entry.tm < entry.te:
                cuts.add(entry.tm)
        ordered = sorted(cut for cut in cuts if cut >= start)
        bases = [0.0] * (len(ordered) - 1)
        growths = [0.0] * (len(ordered) - 1)
        self.entries_examined += len(entries)
        # Entry by entry over the segments each one spans: a segment still
        # sums its entries in ``entries`` order, without visiting the rest.
        for entry in entries:
            first = bisect_left(ordered, entry.ts)
            last = bisect_left(ordered, entry.te)
            self.entries_examined += last - first
            for i in range(first, last):
                lo, hi = ordered[i], ordered[i + 1]
                base = bases[i] + entry.v
                if entry.c:
                    # Current points ramp up between ts and tm.
                    span = entry.tm - entry.ts
                    if entry.tm <= lo:
                        base += entry.c
                    elif entry.tm >= hi:
                        if span > 0:
                            base += entry.c * (lo - entry.ts) / span
                            if hi != INF:
                                growths[i] += entry.c * (hi - lo) / span
                    else:
                        if span > 0:
                            base += entry.c * (lo - entry.ts) / span
                        growths[i] += entry.c  # finishes ramping inside
                bases[i] = base
        segments = list(zip(ordered, ordered[1:], bases, growths))
        frontier = min(entry.ts for entry in child.live)
        settling = sum(1 for segment in segments if segment[1] <= frontier)
        frozen.extend(segments[:settling])
        if len(frozen) > self._capacity:
            child.frozen = frozen = self._quantize(frozen)
        while child.entries[child.settled].te <= frontier:
            child.settled += 1
        return frozen + segments[settling:]

    def _index_profile(self, child: "_CNode") -> list[tuple]:
        """:meth:`_band_profile` of an index child, in one sweep.

        Every summary adds its ``c`` over its band and, when closed, its
        ramp ``cr``; every buffered point adds its weight from its own
        chronon to the end of its entry's band.  Each of these is a start
        and a stop in per-segment difference arrays (the ramp as a line
        ``a + b * t``), so a refresh costs the entries, their points and
        the sort of the cuts — not entries times segments.  Leaf profiles
        keep their entry-by-entry sums: summed in another order, their
        floats (and the pinned estimates of two-level trees) would move.
        """
        entries = child.entries
        cuts = {0.0, INF}
        for entry in entries:
            cuts.add(entry.ts)
            cuts.add(entry.te)
            cuts.update([float(t0) for _, t0, _ in entry.points])
        ordered = sorted(cuts)
        count = len(ordered) - 1
        level = [0.0] * (count + 1)
        intercept = [0.0] * (count + 1)
        slope = [0.0] * (count + 1)
        for entry in entries:
            first = bisect_left(ordered, entry.ts)
            last = bisect_left(ordered, entry.te)
            level[first] += entry.c
            level[last] -= entry.c
            if entry.cr and entry.te != INF and entry.te > entry.ts:
                rate = entry.cr / (entry.te - entry.ts)
                slope[first] += rate
                slope[last] -= rate
                intercept[first] -= rate * entry.ts
                intercept[last] += rate * entry.ts
            for _, t0, w in entry.points:
                at = bisect_left(ordered, t0)
                level[at if at > first else first] += w
                level[last] -= w
        self.entries_examined += len(entries) + count
        segments = []
        base = offset = rate = 0.0
        for i in range(count):
            base += level[i]
            offset += intercept[i]
            rate += slope[i]
            lo, hi = ordered[i], ordered[i + 1]
            growth = rate * (hi - lo) if hi != INF else 0.0
            segments.append((lo, hi, base + offset + rate * lo, growth))
        return segments

    def _quantize(self, segments: list[tuple]) -> list[tuple]:
        """Merge adjacent segments down to :attr:`max_segments`.

        A segment ``(lo, hi, base, growth)`` has value ``base`` at its start
        ramping to ``base + growth`` at its end.  Merging keeps the start
        value of the first and the end value of the second; the pair with
        the smallest introduced discontinuity is merged first (the leftmost
        on ties), and the live (unbounded) tail segment is only merged when
        it is flat against its neighbour.

        A merge changes only the two pairs that touch it, so the mergeable
        pairs wait in a heap and just those two are offered again; an item
        whose segments have since been merged away is recognised by
        identity and dropped.
        """
        merged: list = list(segments)  # None once absorbed into the left
        after = list(range(1, len(merged) + 1))
        before = list(range(-1, len(merged) - 1))
        heap: list[tuple] = []

        def offer(i: int) -> None:
            a, b = merged[i], merged[after[i]]
            deviation = abs(b[2] - (a[2] + a[3]))
            if b[1] == INF and deviation > 1e-9:
                return  # keep the live tail faithful
            heappush(heap, (deviation, i, a, b))

        for i in range(len(merged) - 1):
            offer(i)
        excess = len(merged) - self.max_segments
        while excess > 0 and heap:
            _, i, a, b = heappop(heap)
            j = after[i]
            if merged[i] is not a or j == len(merged) or merged[j] is not b:
                continue
            end_value = b[2] + b[3]
            merged[i] = (a[0], b[1], a[2], max(end_value - a[2], 0.0))
            merged[j] = None
            after[i] = after[j]
            if after[i] < len(merged):
                before[after[i]] = i
                offer(i)
            if before[i] >= 0:
                offer(before[i])
            excess -= 1
        return [segment for segment in merged if segment is not None]

    # ------------------------------------------------------------ structure

    def _split_node(self, node: _CNode, parent: "_CNode | None") -> None:
        boundary = self._split_boundary(node)
        if boundary is None:
            if node.is_leaf:
                node.stuck = len(node.entries)
            return
        left = _CNode(is_leaf=node.is_leaf)
        right = _CNode(is_leaf=node.is_leaf)
        for entry in node.entries:
            if entry.ke <= boundary:
                left.entries.append(entry)
            elif entry.ks >= boundary:
                right.entries.append(entry)
            else:
                if node.is_leaf:
                    right.entries.append(self._cut_entry(entry, boundary))
                    left.entries.append(entry)
                    self._bytes += self._entry_bytes(entry)
                else:
                    # Index summaries straddle only when their child does;
                    # drop and re-profile below.
                    self._bytes -= self._entry_bytes(entry)
                    continue
        for half in (left, right):
            half.live = [e for e in half.entries if e.te == INF]
        key_low = min(e.ks for e in node.entries)
        key_high = max(e.ke for e in node.entries)
        summaries = self._profile_entries(left, key_low, boundary)
        summaries += self._profile_entries(right, boundary, key_high)
        if parent is None:
            parent = self._root = _CNode(is_leaf=False)
        self._replace_summaries(parent, node, summaries)

    @staticmethod
    def _cut_entry(entry: CLeafEntry, boundary: float) -> CLeafEntry:
        """Cut a straddling leaf rectangle at ``boundary``; masses split by
        the uniformity assumption along the key axis."""

        def fraction(bound: float) -> float:
            if bound <= entry.ks:
                return 1.0
            if boundary >= bound:
                return 1.0
            return (boundary - entry.ks) / (bound - entry.ks)

        frac_v = fraction(entry.kb)
        frac_c = fraction(entry.km)
        tail = CLeafEntry(
            boundary, entry.ke, entry.ts, entry.te,
            km=max(entry.km, boundary), tm=entry.tm,
            v=entry.v * (1 - frac_v), c=entry.c * (1 - frac_c),
            kb=max(entry.kb, boundary),
        )
        entry.ke = boundary
        entry.km = min(entry.km, boundary)
        entry.kb = min(entry.kb, boundary)
        entry.v = entry.v * frac_v
        entry.c = entry.c * frac_c
        return tail

    def _split_boundary(self, node: _CNode) -> float | None:
        if node.is_leaf:
            boundaries = sorted(
                {e.ks for e in node.entries} | {e.ke for e in node.entries}
            )
        else:
            boundaries = sorted({e.ks for e in node.entries})
        inner = [b for b in boundaries[1:-1] if b != INF]
        if not inner:
            return None
        return inner[len(inner) // 2]

    # ------------------------------------------------------------- estimate

    def estimate(self, key: int, time: int) -> float:
        """Approximate dominance sum at ``(key, time)`` — Section 6.3's
        sum-over-left walk."""
        if key < 0 or time < 0:
            return 0.0
        total = 0.0
        node = self._root
        while node is not None:
            descend = None
            for entry in node.entries:
                if entry.ts > time or entry.te <= time or entry.ks > key:
                    continue
                if node.is_leaf:
                    total += self._leaf_value(entry, key, time)
                elif entry.ke <= key:
                    # Entirely left: the whole subtree band counts.
                    total += self._index_value(entry, key, time)
                else:
                    # Containing entry: its mass is collected during the
                    # descent (the summary only serves entirely-left
                    # queries), so add nothing here.
                    descend = entry.child
            if node.is_leaf:
                return total
            node = descend
        return total

    def _leaf_value(self, entry: CLeafEntry, key: int, time: int) -> float:
        settled = entry.v
        if key < entry.kb:
            settled *= self._kb_ratio(entry, key)
        current = entry.c
        if current:
            if key < entry.km and entry.km > entry.ks:
                current *= (key - entry.ks) / (entry.km - entry.ks)
            elif key < entry.km:
                current = 0.0
            if time < entry.tm and entry.tm > entry.ts:
                current *= (time - entry.ts) / (entry.tm - entry.ts)
        return settled + current

    @staticmethod
    def _index_value(entry: CIndexEntry, key: int, time: int) -> float:
        total = entry.c
        if entry.cr and entry.te != INF and entry.te > entry.ts:
            total += entry.cr * (time - entry.ts) / (entry.te - entry.ts)
        total += sum(
            w for k0, t0, w in entry.points if k0 <= key and t0 <= time
        )
        return total

    # ----------------------------------------------------------------- size

    def iter_nodes(self) -> Iterator[_CNode]:
        stack = [self._root]
        seen = {id(self._root)}
        while stack:
            node = stack.pop()
            yield node
            if node.is_leaf:
                continue
            for entry in node.entries:
                if (
                    isinstance(entry, CIndexEntry)
                    and entry.child is not None
                    and id(entry.child) not in seen
                ):
                    seen.add(id(entry.child))
                    stack.append(entry.child)

    def entry_count(self) -> int:
        return sum(len(node.entries) for node in self.iter_nodes())

    @staticmethod
    def _entry_bytes(entry: CLeafEntry | CIndexEntry) -> int:
        """Storage-layout bytes of one entry: its fixed fields, plus an
        index entry's buffered list (bounded by ``lm``)."""
        if isinstance(entry, CLeafEntry):
            return 9 * 8
        return 8 * 8 + 24 * len(entry.points)

    def sizeof(self) -> int:
        """Storage-layout bytes of every entry (:meth:`_entry_bytes`),
        counted as the tree changes: reading it walks nothing."""
        return self._bytes
