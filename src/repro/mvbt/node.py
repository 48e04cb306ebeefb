"""MVBT nodes.

Nodes carry their own lifetime ``[start, death)``: a version split *kills* the
old node (sets ``death``) and copies its live entries into new nodes, leaving
the old entries untouched, exactly as in Becker et al.  Readers therefore
clamp every entry's raw interval to the node's lifetime (the *effective
period*) — the predecessor chain reconstructs full intervals across splits.

Leaf nodes have two interchangeable storage backends: a plain entry list and
the delta-compressed byte buffer of Section 4.2 (only leaves are compressed,
matching the paper's trade-off).  In a compressed tree a leaf is plain only
while it is alive and was born from a split; it is packed at load or at
death (``docs/compression.md``).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..model.time import NOW, Period
from .entry import IndexEntry, Key, LeafEntry

if TYPE_CHECKING:  # pragma: no cover
    from .compression import CompressedLeafStore

#: Process-wide node identities.  ``id(node)`` can alias once a node is
#: collected, so anything that outlives a node reference (decoded-record
#: caches, debug maps) keys on ``node.uid`` instead.  Never serialized:
#: snapshots rebuild the graph through dense table indices.
_NODE_UIDS = itertools.count(1)


class _NodeBase:
    """State shared by leaf and index nodes: lifetime, region, lineage."""

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

    def kill(self, time: int, pack: bool = False) -> None:
        """End the node's lifetime at version ``time`` — the one place
        ``death`` is set.  A dead node never changes again; ``pack`` (the
        tree is compressed) lets a leaf take its final, packed form."""
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
        node.death = state["death"]
        return node


class LeafNode(_NodeBase):
    """An MVBT leaf holding data entries."""

    is_leaf = True

    def __init__(self, key_low: Key, start: int) -> None:
        super().__init__(key_low, start)
        self._entries: list[LeafEntry] | None = []
        self._store: "CompressedLeafStore | None" = None
        self._live_count = 0

    # -------------------------------------------------------------- storage

    @property
    def is_compressed(self) -> bool:
        return self._store is not None

    def compress(self) -> None:
        """Switch to the delta-compressed byte-buffer backend."""
        if self._store is not None:
            return
        from .compression import CompressedLeafStore

        self._store = CompressedLeafStore(self._entries or [])
        self._entries = None

    def decompress(self) -> None:
        """Switch back to the plain entry-list backend.

        Entries are copied out of the store's (frozen, possibly shared)
        decoded tuple: the list backend mutates entries in place on
        logical delete, which must not be visible through any previously
        handed-out tuple.
        """
        if self._store is None:
            return
        self._entries = [e.copy() for e in self._store.entries()]
        self._store.release_memo()
        self._store = None

    def kill(self, time: int, pack: bool = False) -> None:
        """Die at ``time``; in a compressed tree, seal: the entry list is
        encoded once into the byte buffer it keeps from then on."""
        super().kill(time)
        if pack:
            self.compress()

    # --------------------------------------------------------------- access

    def entries(self) -> Iterator[LeafEntry]:
        """All entries in insertion (nondecreasing start-version) order.

        Treat yielded entries as read-only: compressed leaves yield from
        a decoded tuple that may be shared between readers.
        """
        if self._store is not None:
            return iter(self._store.entries())
        return iter(self._entries)

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
        unless the store's policy prefers the decoded form; plain leaves
        and hot decoded leaves run the same filter over entry objects.
        Entry intervals are clamped to the node's lifetime inline; the
        two paths emit identical pieces in identical order.
        """
        store = self._store
        node_start = self.start
        node_death = self.death
        if store is not None and store.wants_packed():
            return store.scan_packed(
                key_low, key_high, t1, t2, node_start, node_death, out
            )
        append = out.append
        for entry in self.entries():
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

    @property
    def count(self) -> int:
        if self._store is not None:
            return self._store.count
        return len(self._entries)

    @property
    def live_count(self) -> int:
        return self._live_count

    def live_entries(self) -> list[LeafEntry]:
        return [e for e in self.entries() if e.is_live]

    def has_live(self, key: Key) -> bool:
        """Whether ``key`` is live here (keys are unique per version)."""
        if self._store is not None:
            return self._store.has_live(key)
        for entry in self._entries:
            if entry.end == NOW and entry.key == key:
                return True
        return False

    # ------------------------------------------------------------- mutation

    def append(self, entry: LeafEntry) -> None:
        """Append a fresh entry (entries arrive in nondecreasing start)."""
        if self._store is not None:
            self._store.append(entry)
        else:
            self._entries.append(entry)
        if entry.is_live:
            self._live_count += 1

    def end_live(self, key: Key, end: int) -> bool:
        """Logically delete: set the end version of the live ``key`` entry."""
        if self._store is not None:
            done = self._store.end_live(key, end)
        else:
            done = False
            for entry in self._entries:
                if entry.end == NOW and entry.key == key:
                    entry.end = end
                    done = True
                    break
        if done:
            self._live_count -= 1
        return done

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
            self._entries = None
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

    is_leaf = False

    def __init__(self, key_low: Key, start: int) -> None:
        super().__init__(key_low, start)
        self._entries: list[IndexEntry] = []
        self._live_count = 0

    def entries(self) -> Iterator[IndexEntry]:
        return iter(self._entries)

    @property
    def count(self) -> int:
        return len(self._entries)

    @property
    def live_count(self) -> int:
        return self._live_count

    def live_entries(self) -> list[IndexEntry]:
        return [e for e in self._entries if e.is_live]

    def append(self, entry: IndexEntry) -> None:
        self._entries.append(entry)
        if entry.is_live:
            self._live_count += 1

    def end_child(self, child: _NodeBase, end: int) -> bool:
        """Kill the live routing entry pointing at ``child``."""
        for entry in self._entries:
            if entry.is_live and entry.child is child:
                entry.end = end
                self._live_count -= 1
                return True
        return False

    def route(self, key: Key, chronon: int) -> _NodeBase:
        """The child whose region contains ``key`` at version ``chronon``."""
        best: IndexEntry | None = None
        for entry in self._entries:
            if not entry.alive_at(chronon):
                continue
            if entry.key <= key and (best is None or entry.key > best.key):
                best = entry
        if best is None:
            raise LookupError(
                f"no route for key {key!r} at version {chronon}"
            )
        return best.child

    def children_overlapping(
        self, key_low: Key, key_high: Key, chronon: int
    ) -> list[_NodeBase]:
        """Children alive at ``chronon`` whose region intersects
        ``[key_low, key_high)``.

        The live entries at ``chronon`` partition the node's key region; each
        child's region is ``[entry.key, next_entry.key)``.
        """
        alive = sorted(
            (e for e in self._entries if e.alive_at(chronon)),
            key=lambda e: e.key,
        )
        out: list[_NodeBase] = []
        for idx, entry in enumerate(alive):
            upper = alive[idx + 1].key if idx + 1 < len(alive) else None
            if upper is not None and upper <= key_low:
                continue
            if entry.key >= key_high:
                break
            out.append(entry.child)
        return out

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


def live_partition(entries: Iterable[IndexEntry], chronon: int) -> list[IndexEntry]:
    """Live routing entries at ``chronon`` sorted by region lower bound."""
    return sorted((e for e in entries if e.alive_at(chronon)), key=lambda e: e.key)
