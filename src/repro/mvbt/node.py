"""MVBT nodes.

Nodes carry their own lifetime ``[start, death)``: a version split *kills* the
old node (sets ``death``) and copies its live entries into new nodes, leaving
the old entries untouched, exactly as in Becker et al.  Readers therefore
clamp every entry's raw interval to the node's lifetime (the *effective
period*) — the predecessor chain reconstructs full intervals across splits.

Leaf nodes have two interchangeable storage backends: a plain entry list and
the delta-compressed byte buffer of Section 4.2 (only leaves are compressed,
matching the paper's trade-off).  A tree uses one of them throughout: in a
compressed tree every leaf is its byte buffer from birth to death
(``docs/compression.md``).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..model.time import NOW, Period
from .entry import IndexEntry, Key, LeafEntry

if TYPE_CHECKING:  # pragma: no cover
    from .compression import CompressedLeafStore, MemoTable

#: Process-wide node identities.  ``id(node)`` can alias once a node is
#: collected, so anything that outlives a node reference (decoded-record
#: caches, debug maps) keys on ``node.uid`` instead.  Never serialized:
#: snapshots rebuild the graph through dense table indices.
_NODE_UIDS = itertools.count(1)

_ENTRY_KEY = attrgetter("key")


class _NodeBase:
    """State shared by leaf and index nodes: lifetime, region, lineage."""

    __slots__ = ("uid", "key_low", "key_high", "start", "death",
                 "predecessors")

    def __init__(self, key_low: Key, start: int) -> None:
        #: Stable per-process identity (see :data:`_NODE_UIDS`).
        self.uid = next(_NODE_UIDS)
        #: Lower bound of the node's key region.
        self.key_low = key_low
        #: Upper bound of the node's key region (None = unbounded).  Kept so
        #: the link-based scan can prune predecessors on both key sides.
        self.key_high: Key | None = None
        #: First version of the node's lifetime.
        self.start = start
        #: Version at which the node was killed (NOW while alive).
        self.death = NOW
        #: Backward links to temporal predecessors (Sec 5.2.1, Fig 4).
        self.predecessors: list[_NodeBase] = []

    @property
    def is_alive(self) -> bool:
        return self.death == NOW

    def kill(self, time: int) -> None:
        """End the node's lifetime at version ``time`` — the one place
        ``death`` is set.  A dead node never changes again."""
        self.death = time

    def lifetime_overlaps(self, t1: int, t2: int) -> bool:
        """Whether the node's lifetime intersects ``[t1, t2)``."""
        return self.start < t2 and t1 < self.death

    def effective_period(self, start: int, end: int) -> Period | None:
        """Clamp a raw entry interval to this node's lifetime."""
        lo = max(start, self.start)
        hi = min(end, self.death)
        if lo >= hi:
            return None
        return Period(lo, hi)

    # -------------------------------------------------------- serialization

    def dump_state(self, node_ids: dict[int, int]) -> dict:
        """Plain-data state of this node; graph links become node ids.

        ``node_ids`` maps ``id(node)`` to a dense index assigned by
        :meth:`repro.mvbt.tree.MVBT.dump_state`; the flat representation
        keeps snapshot encoding iterative (predecessor chains can be long,
        so a naive recursive pickle of the object graph would blow the
        recursion limit).
        """
        return {
            "kind": "leaf" if self.is_leaf else "index",
            "key_low": self.key_low,
            "key_high": self.key_high,
            "start": self.start,
            "death": self.death,
            "predecessors": [node_ids[id(p)] for p in self.predecessors],
            **self._dump_entries(node_ids),
        }

    @staticmethod
    def shell_from_state(state: dict) -> "_NodeBase":
        """An empty node carrying the scalar state (entries/links later)."""
        cls = LeafNode if state["kind"] == "leaf" else IndexNode
        node = cls(state["key_low"], state["start"])
        node.key_high = state["key_high"]
        if state["death"] != NOW:
            node.kill(state["death"])
        return node


class LeafNode(_NodeBase):
    """An MVBT leaf holding data entries."""

    __slots__ = ("_entries", "_store", "_live_count", "_live")

    is_leaf = True

    def __init__(self, key_low: Key, start: int) -> None:
        super().__init__(key_low, start)
        self._entries: list[LeafEntry] | None = []
        self._store: "CompressedLeafStore | None" = None
        self._live_count = 0
        #: ``key -> entry`` over the live entries while the leaf is alive
        #: and plain; dropped (None) for good when it dies or is packed (a
        #: packed leaf's store keeps its own live index).  Derived from
        #: ``_entries``: never serialized, not part of :meth:`sizeof`.
        self._live: dict[Key, LeafEntry] | None = {}

    @classmethod
    def plain(cls, key_low: Key, start: int,
              entries: list[LeafEntry]) -> "LeafNode":
        """A plain leaf born from a version split, in one step: it takes
        ``entries`` (its birth set, every one live and owned by no other
        leaf) as its entry list and builds its live map from them."""
        leaf = cls(key_low, start)
        leaf._entries = entries
        leaf._live_count = len(entries)
        leaf._live = {entry.key: entry for entry in entries}
        return leaf

    @classmethod
    def packed(cls, key_low: Key, start: int, entries: list[LeafEntry],
               memo: "MemoTable") -> "LeafNode":
        """A leaf of a compressed tree, packed from birth: ``entries`` (its
        birth set) are encoded once, bases taken from them, and the store
        takes its live index from them too — the split that makes a leaf
        is about to write to it."""
        leaf = cls.plain(key_low, start, entries)
        leaf.compress(memo)
        leaf._store.index(entries)
        return leaf

    # -------------------------------------------------------------- storage

    @property
    def is_compressed(self) -> bool:
        return self._store is not None

    def compress(self, memo: "MemoTable") -> None:
        """Switch to the delta-compressed byte-buffer backend, read through
        the tree's ``memo`` table (a leaf already packed, e.g. restored
        from a snapshot, is attached to it)."""
        if self._store is None:
            from .compression import CompressedLeafStore

            self._store = CompressedLeafStore(self._entries or [])
            self._entries = None
            self._live = None
            if not self.is_alive:
                self._store.seal()
        self._store.memo = memo

    def decompress(self) -> None:
        """Switch back to the plain entry-list backend: the records are
        decoded past the memo (no use counted, nothing admitted) and any
        resident form returns its charge."""
        store = self._store
        if store is None:
            return
        self._entries = [
            LeafEntry(key, start, end, None)
            for key, start, end in store.rows()
        ]
        store.invalidate()
        self._store = None
        if self.is_alive:
            self._live = {e.key: e for e in self._entries if e.end == NOW}

    def kill(self, time: int) -> None:
        """Die at ``time``: no more writes, so the write path's live map
        (plain) or live index (packed) goes."""
        super().kill(time)
        self._live = None
        if self._store is not None:
            self._store.seal()

    # --------------------------------------------------------------- access

    def entries(self) -> Iterator[LeafEntry]:
        """All entries in insertion (nondecreasing start-version) order.

        Treat yielded entries as read-only: a plain leaf yields its own
        entry objects (a compressed one fresh copies).
        """
        if self._store is not None:
            return iter(self._store.entries())
        return iter(self._entries)

    def records(self) -> Iterable[tuple[Key, int, int]]:
        """``(key, start, end)`` of every entry, read as a scan reads them:
        a compressed leaf through its flat decoded form (a use toward the
        hot threshold; the memo when resident)."""
        if self._store is None:
            return self.rows()
        it = iter(self._store.flat())
        return zip(it, it, it)

    def scan_pieces(
        self,
        key_low: Key,
        key_high: Key,
        t1: int,
        t2: int,
        out: list[tuple[Key, int, int, Any]],
    ) -> list[tuple[Key, int, int, Any]]:
        """Append this leaf's ``(key, lo, hi, payload)`` pieces inside the
        query region to ``out`` (the per-leaf unit of every scan).

        Compressed leaves evaluate the predicates directly over the
        packed byte buffer (:meth:`CompressedLeafStore.scan_packed`)
        unless the store's policy prefers the decoded form; hot decoded
        leaves run the same filter over their flat tuple, plain leaves
        over their entry objects (each loop is the faster one for its
        form).  Entry intervals are clamped to the node's lifetime
        inline; the paths emit identical pieces in identical order.
        """
        store = self._store
        node_start = self.start
        node_death = self.death
        append = out.append
        if store is None:
            for entry in self._entries:
                key = entry.key
                if key < key_low or key >= key_high:
                    continue
                lo = entry.start
                if node_start > lo:
                    lo = node_start
                hi = entry.end
                if node_death < hi:
                    hi = node_death
                if lo >= hi or lo >= t2 or t1 >= hi:
                    continue
                append((key, lo, hi, entry.payload))
            return out
        if store.wants_packed():
            return store.scan_packed(
                key_low, key_high, t1, t2, node_start, node_death, out
            )
        it = iter(store.flat())
        for key, lo, hi in zip(it, it, it):
            if key < key_low or key >= key_high:
                continue
            if node_start > lo:
                lo = node_start
            if node_death < hi:
                hi = node_death
            if lo >= hi or lo >= t2 or t1 >= hi:
                continue
            append((key, lo, hi, None))
        return out

    @property
    def count(self) -> int:
        if self._store is not None:
            return self._store.count
        return len(self._entries)

    @property
    def live_count(self) -> int:
        return self._live_count

    def live_entries(self) -> list[LeafEntry]:
        """The live entries in entry order, read off the write path's
        state while the leaf is alive: a plain leaf's own objects from its
        live map, a packed leaf's fresh copies from its live index (a dead
        leaf has neither: it scans its entries)."""
        if self._live is not None:
            return list(self._live.values())
        if self._store is not None and self.death == NOW:
            return self._store.live_entries()
        return [e for e in self.entries() if e.is_live]

    def rows(self) -> Iterable[tuple[Key, int, int]]:
        """``(key, start, end)`` of every entry, raw (not clamped to the
        node's lifetime); leaves the read memo of a packed leaf alone."""
        if self._store is not None:
            return self._store.rows()
        return [(e.key, e.start, e.end) for e in self._entries]

    def live_start(self, key: Key) -> int | None:
        """Start version of this live leaf's live ``key`` entry, or None
        (a version-split copy's is the leaf's birth: see
        :meth:`MVBT.live_start <repro.mvbt.tree.MVBT.live_start>`)."""
        if self._store is not None:
            return self._store.live_start(key)
        entry = self._live.get(key)
        return None if entry is None else entry.start

    # ------------------------------------------------------------- mutation

    def insert_live(self, entry: LeafEntry) -> int:
        """Append the live ``entry`` to this live leaf unless its key is
        live here already: the duplicate probe and the append of one
        insert in one call.  Returns the entry count after the append, or
        0 for a duplicate (nothing changed).  A packed leaf's codec
        refuses what it cannot hold before anything changes."""
        key = entry.key
        live = self._live
        if live is not None:
            if key in live:
                return 0
            entries = self._entries
            entries.append(entry)
            live[key] = entry
            self._live_count += 1
            return len(entries)
        store = self._store
        if store.has_live(key):
            return 0
        store.append(entry)
        self._live_count += 1
        return store.count

    def append(self, entry: LeafEntry) -> None:
        """Append a fresh entry (entries arrive in nondecreasing start)."""
        if self._store is not None:
            self._store.append(entry)
        else:
            self._entries.append(entry)
        if entry.end == NOW:
            self._live_count += 1
            if self._live is not None:
                self._live[entry.key] = entry

    def end_live(self, key: Key, end: int) -> bool:
        """Logically delete: set the end version of the live ``key`` entry
        of this live leaf."""
        if self._store is not None:
            done = self._store.end_live(key, end)
        else:
            entry = self._live.pop(key, None)
            done = entry is not None
            if done:
                entry.end = end
        if done:
            self._live_count -= 1
        return done

    def check_live_path(self, live: list[LeafEntry]) -> None:
        """Assert the live map is exactly ``live`` (the live entries
        recounted from the entry list) — the same objects, since a logical
        delete writes through the map; a packed leaf's store audits its
        live index against its own bytes."""
        if self._store is not None:
            self._store.check_index(sealed=not self.is_alive)
        if self._store is not None or not self.is_alive:
            assert self._live is None, f"live map outlived its leaf: {self!r}"
            return
        assert len(self._live) == len(live) and all(
            self._live.get(e.key) is e for e in live
        ), f"live entry map drifted: {self!r}"

    def sizeof(self) -> int:
        """Storage-layout size in bytes (see ``repro.bench.sizing``)."""
        from .compression import STANDARD_ENTRY_BYTES, NODE_HEADER_BYTES

        if self._store is not None:
            return self._store.sizeof()
        return NODE_HEADER_BYTES + STANDARD_ENTRY_BYTES * len(self._entries)

    # -------------------------------------------------------- serialization

    def _dump_entries(self, node_ids: dict[int, int]) -> dict:
        if self._store is not None:
            # Compressed leaves ship their raw byte buffer: restore is
            # byte-identical and pays no re-encode.
            return {
                "store": self._store.to_state(),
                "live_count": self._live_count,
            }
        return {
            "entries": [
                (e.key, e.start, e.end, e.payload) for e in self._entries
            ],
        }

    def restore_entries(self, state: dict, nodes: list["_NodeBase"]) -> None:
        if "store" in state:
            from .compression import CompressedLeafStore

            self._store = CompressedLeafStore.from_state(state["store"])
            if not self.is_alive:
                self._store.seal()
            self._entries = None
            self._live = None
            self._live_count = state["live_count"]
            return
        for key, start, end, payload in state["entries"]:
            self.append(LeafEntry(tuple(key), start, end, payload))

    def __repr__(self) -> str:
        state = "live" if self.is_alive else f"dead@{self.death}"
        return (
            f"<LeafNode key_low={self.key_low} [{self.start},{self.death}) "
            f"{self.count} entries ({self.live_count} live) {state}>"
        )


class IndexNode(_NodeBase):
    """An MVBT index (routing) node; never compressed."""

    __slots__ = ("_entries", "_live", "_changed")

    is_leaf = False

    def __init__(self, key_low: Key, start: int) -> None:
        super().__init__(key_low, start)
        self._entries: list[IndexEntry] = []
        #: The live routing entries in key order: the node's partition of
        #: its key region at every chronon from ``_changed`` on.  Derived
        #: from ``_entries``: never serialized, not part of :meth:`sizeof`.
        self._live: list[IndexEntry] = []
        #: Chronon of the last change to the set of live entries.
        self._changed = start

    def entries(self) -> Iterator[IndexEntry]:
        return iter(self._entries)

    @property
    def count(self) -> int:
        return len(self._entries)

    @property
    def live_count(self) -> int:
        return len(self._live)

    def live_entries(self) -> list[IndexEntry]:
        """The live routing entries by region lower bound."""
        return list(self._live)

    def append(self, entry: IndexEntry) -> None:
        """Add a routing entry (an ended one only on snapshot restore)."""
        self._entries.append(entry)
        if entry.end == NOW:
            at = bisect_right(self._live, entry.key, key=_ENTRY_KEY)
            self._live.insert(at, entry)
            changed = entry.start
        else:
            changed = entry.end
        if changed > self._changed:
            self._changed = changed

    def _live_index(self, child: _NodeBase) -> int | None:
        """Where the live routing entry of ``child`` sits (its key is the
        child's region lower bound)."""
        at = bisect_left(self._live, child.key_low, key=_ENTRY_KEY)
        if at < len(self._live) and self._live[at].child is child:
            return at
        return None

    def end_child(self, child: _NodeBase, end: int) -> bool:
        """Kill the live routing entry pointing at ``child``."""
        at = self._live_index(child)
        if at is None:
            return False
        self._live.pop(at).end = end
        self._changed = end
        return True

    def live_sibling(self, child: _NodeBase) -> _NodeBase | None:
        """The live child adjacent by key region to the live ``child``:
        the left neighbour, or the right one for the leftmost child."""
        at = self._live_index(child)
        if at is None:
            return None
        if at > 0:
            return self._live[at - 1].child
        if len(self._live) > 1:
            return self._live[1].child
        return None

    def _partition(self, chronon: int) -> list[IndexEntry]:
        """The routing entries alive at ``chronon`` in key order; each
        child's region runs from its entry's key to the next entry's.

        From the last change on that is the live array as it stands:
        every live entry started by then and every other entry had ended.
        Earlier chronons rebuild the partition from the full entry list.
        """
        if chronon >= self._changed:
            return self._live
        alive = [e for e in self._entries if e.alive_at(chronon)]
        alive.sort(key=_ENTRY_KEY)
        return alive

    def route(self, key: Key, chronon: int) -> _NodeBase:
        """The child whose region contains ``key`` at version ``chronon``."""
        alive = self._partition(chronon)
        at = bisect_right(alive, key, key=_ENTRY_KEY) - 1
        if at < 0:
            raise LookupError(
                f"no route for key {key!r} at version {chronon}"
            )
        return alive[at].child

    def children_overlapping(
        self, key_low: Key, key_high: Key, chronon: int
    ) -> list[_NodeBase]:
        """Children alive at ``chronon`` whose region intersects
        ``[key_low, key_high)``, by region lower bound."""
        alive = self._partition(chronon)
        first = max(bisect_right(alive, key_low, key=_ENTRY_KEY) - 1, 0)
        last = bisect_left(alive, key_high, key=_ENTRY_KEY)
        return [e.child for e in alive[first:last]]

    def check_live_path(self, live: list[IndexEntry]) -> None:
        """Assert the live array is exactly ``live`` (the live entries
        recounted from the entry list) in key order, alive node or dead."""
        live = sorted(live, key=_ENTRY_KEY)
        assert len(self._live) == len(live) and all(
            mine is e for mine, e in zip(self._live, live)
        ), f"live routing array drifted: {self!r}"

    def sizeof(self) -> int:
        from .compression import STANDARD_ENTRY_BYTES, NODE_HEADER_BYTES

        return NODE_HEADER_BYTES + STANDARD_ENTRY_BYTES * len(self._entries)

    # -------------------------------------------------------- serialization

    def _dump_entries(self, node_ids: dict[int, int]) -> dict:
        return {
            "entries": [
                (e.key, e.start, e.end, node_ids[id(e.child)])
                for e in self._entries
            ],
        }

    def restore_entries(self, state: dict, nodes: list["_NodeBase"]) -> None:
        for key, start, end, child_id in state["entries"]:
            self.append(IndexEntry(tuple(key), start, end, nodes[child_id]))

    def __repr__(self) -> str:
        state = "live" if self.is_alive else f"dead@{self.death}"
        return (
            f"<IndexNode key_low={self.key_low} [{self.start},{self.death}) "
            f"{self.count} entries ({self.live_count} live) {state}>"
        )


Node = _NodeBase
