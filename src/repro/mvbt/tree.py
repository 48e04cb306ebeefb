"""The Multiversion B+ Tree (Becker et al., VLDBJ 1996; paper Section 4.1).

An MVBT is a *forest*: a registry of root nodes, each valid over a temporal
partition (Figure 2(a)).  Entries are ``(key, start, end, payload)``;
insertions and logical deletions must arrive in nondecreasing time order
(transaction time).  Structure changes (Figure 2(c)):

* **Version split** — an overflowing or weak-version-underflowing node is
  killed and its live entries are copied into a fresh node, each copy
  starting at the split.
* **Key split** — if the copy would violate the strong upper bound it is split
  by key into two nodes.
* **Merge** — if the copy would violate the strong lower bound, a live sibling
  is killed too and its live entries join the copy (with a key split if the
  union is too big: *merge & key split*).

New nodes carry backward links to the node(s) they were copied from; the
link-based range-interval scan (Section 5.2.1) rides these links.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable, Iterator

from ..model.time import MIN_TIME, NOW
from ..obs import metrics as _metrics
from .compression import MemoTable
from .entry import IndexEntry, Key, LeafEntry, MIN_KEY
from .node import _ENTRY_KEY, IndexNode, LeafNode, Node

# Update-path instrumentation (no-ops under REPRO_OBS=0).
_INSERTS = _metrics.counter("mvbt.tree.inserts")
_DELETES = _metrics.counter("mvbt.tree.deletes")
_VERSION_SPLITS = _metrics.counter("mvbt.tree.version_splits")
_KEY_SPLITS = _metrics.counter("mvbt.tree.key_splits")
_MERGES = _metrics.counter("mvbt.tree.merges")

_EVENT_TIME = itemgetter(0)


class MVBTError(Exception):
    """Base error for MVBT operations."""


class DuplicateKeyError(MVBTError):
    """An insert found the key already live at the current version."""


class TimeOrderError(MVBTError):
    """Operations must arrive in nondecreasing time order."""


@dataclass(frozen=True)
class MVBTConfig:
    """Structural parameters of the MVBT.

    ``block_capacity`` (b) bounds total entries per node; ``weak_min`` (d) is
    the weak-version condition; ``epsilon`` (e) widens the strong-version
    bounds ``[weak_min + epsilon, block_capacity - epsilon]`` so that at least
    ``epsilon`` operations separate consecutive structure changes of a node.
    """

    block_capacity: int = 16
    weak_min: int = 3
    epsilon: int = 3

    def __post_init__(self) -> None:
        b, d, e = self.block_capacity, self.weak_min, self.epsilon
        if not (d >= 2 and e >= 1):
            raise ValueError("weak_min >= 2 and epsilon >= 1 required")
        if self.strong_min >= self.strong_max:
            raise ValueError("strong bounds are empty")
        # A version split of an overflowing node yields at most b + 1 live
        # entries; after a key split each half must satisfy the strong
        # bounds.
        if (self.strong_max + 1) // 2 < self.strong_min:
            raise ValueError("key split could violate the strong lower bound")
        # A merge sees at most (strong_min - 1) + b live entries and must fit
        # in at most two nodes.
        if (d + e - 1 + b + 1) // 2 > self.strong_max:
            raise ValueError("merge & key split could overflow")

    @property
    def strong_min(self) -> int:
        return self.weak_min + self.epsilon

    @property
    def strong_max(self) -> int:
        return self.block_capacity - self.epsilon


class MVBT:
    """An in-memory Multiversion B+ Tree over tuple keys."""

    def __init__(self, config: MVBTConfig | None = None,
                 memo: MemoTable | None = None) -> None:
        self.config = config or MVBTConfig()
        #: The decoded-leaf memo its packed leaves read through: the
        #: engine's, shared by its four trees, or the tree's own.
        self.memo = memo if memo is not None else MemoTable()
        first_root = LeafNode(MIN_KEY, MIN_TIME)
        #: Root registry: parallel arrays of start versions and root nodes.
        self._root_starts: list[int] = [MIN_TIME]
        self._roots: list[Node] = [first_root]
        self._now = MIN_TIME
        self._live_records = 0
        self._total_versions = 0
        #: Set by :meth:`compress`, cleared by :meth:`decompress`: every
        #: leaf of a packed tree is a byte buffer, from birth.
        self._packed = False

    # ------------------------------------------------------------ accessors

    @property
    def is_packed(self) -> bool:
        """Whether the tree keeps its history delta-compressed."""
        return self._packed

    @property
    def current_time(self) -> int:
        """Largest operation timestamp seen so far."""
        return self._now

    @property
    def live_records(self) -> int:
        """Number of keys live at the current version."""
        return self._live_records

    @property
    def total_versions(self) -> int:
        """Total number of entry versions ever inserted."""
        return self._total_versions

    @property
    def live_root(self) -> Node:
        return self._roots[-1]

    def root_for(self, chronon: int) -> Node:
        """The root of the temporal partition containing ``chronon``."""
        idx = bisect_right(self._root_starts, chronon) - 1
        return self._roots[max(idx, 0)]

    # ------------------------------------------------------------ mutations

    def insert(self, key: Key, time: int, payload: Any = None) -> None:
        """Insert ``key`` at version ``time`` (live until deleted): a
        one-event :func:`replay`."""
        replay(self, ((time, 0, key),), payload)

    def delete(self, key: Key, time: int) -> None:
        """Logically delete ``key`` at version ``time``: a one-event
        :func:`replay`."""
        replay(self, ((time, 1, key),))

    def insert_interval(self, key: Key, start: int, end: int,
                        payload: Any = None) -> None:
        """Insert an interval-encoded record, i.e. an insert at ``start``
        followed by a delete at ``end`` — only valid when no operation with a
        later timestamp has happened yet (bulk loads use
        :func:`repro.mvbt.tree.bulk_load` which orders the events)."""
        self.insert(key, start, payload)
        if end != NOW:
            self.delete(key, end)

    def check_time(self, time: int) -> None:
        """Raise :class:`TimeOrderError` for an operation time behind the
        watermark (operations arrive in nondecreasing time order)."""
        if time < self._now:
            raise TimeOrderError(
                f"operation at {time} after watermark {self._now}"
            )

    # ------------------------------------------------------------- descent

    def _descend(self, key: Key) -> list[Node]:
        """Live path from the live root to the live leaf owning ``key``."""
        node = self.live_root
        path = [node]
        while not node.is_leaf:
            node = node.route(key, self._now)
            path.append(node)
        return path

    # --------------------------------------------------- structure changes

    def _restructure(self, path: list[Node], time: int) -> None:
        """Version split (+ key split / merge) of ``path[-1]``."""
        node = path[-1]
        parent: IndexNode | None = path[-2] if len(path) > 1 else None
        cfg = self.config

        donors: list[Node] = [node]
        live = self._snapshot_live(node, time)
        if parent is not None and len(live) < cfg.strong_min:
            sibling = parent.live_sibling(node)
            if sibling is not None:
                donors.append(sibling)
                live.extend(self._snapshot_live(sibling, time))

        live.sort(key=_ENTRY_KEY)
        key_low = min(d.key_low for d in donors)
        key_high = None
        if all(d.key_high is not None for d in donors):
            key_high = max(d.key_high for d in donors)
        new_nodes = self._build_nodes(node.is_leaf, live, key_low, time)
        if _metrics.ENABLED:
            _VERSION_SPLITS.inc()
            if len(donors) > 1:
                _MERGES.inc()
            if len(new_nodes) == 2:
                _KEY_SPLITS.inc()
        if len(new_nodes) == 2:
            new_nodes[0].key_high = new_nodes[1].key_low
            new_nodes[1].key_high = key_high
        elif new_nodes:
            new_nodes[0].key_high = key_high
        for donor in donors:
            donor.kill(time)
        for fresh in new_nodes:
            fresh.predecessors = list(donors)

        if parent is None:
            self._replace_root(new_nodes, time)
            return
        for donor in donors:
            parent.end_child(donor, time)
        for fresh in new_nodes:
            parent.append(IndexEntry(fresh.key_low, time, NOW, fresh))
        self._check_parent(path[:-1], time)

    def _snapshot_live(self, node: Node, time: int) -> list:
        """Copies of the live entries, each starting at the split version
        ``time`` — the one place a version split copies an entry.

        A copy needs to cover only its new node's lifetime, to which every
        read clamps it anyway, so in a packed leaf its start is a zero
        delta.  :meth:`history` and :meth:`live_start` carry an entry's
        true start across its copies.  A plain leaf's entries come off
        its live map, a packed leaf's off its live index."""
        live = node.live_entries()
        if not node.is_leaf:
            return [IndexEntry(e.key, time, NOW, e.child) for e in live]
        return [LeafEntry(e.key, time, NOW, e.payload) for e in live]

    def _build_nodes(
        self, is_leaf: bool, live: list, key_low: Key, time: int
    ) -> list[Node]:
        """Pack sorted live entries into one or two strong-condition
        nodes.  A leaf is born whole from its part of ``live``
        (:meth:`LeafNode.plain`); the leaves of a compressed tree are
        born packed."""
        parts = [(key_low, live)]
        if len(live) > self.config.strong_max:
            mid = len(live) // 2
            parts = [(key_low, live[:mid]), (live[mid].key, live[mid:])]
        if is_leaf:
            if self._packed:
                return [LeafNode.packed(low, time, part, self.memo)
                        for low, part in parts]
            return [LeafNode.plain(low, time, part) for low, part in parts]
        nodes = []
        for low, part in parts:
            fresh = IndexNode(low, time)
            for entry in part:
                fresh.append(entry)
            nodes.append(fresh)
        return nodes

    def _replace_root(self, new_nodes: list[Node], time: int) -> None:
        """Register the successor(s) of a split root (Figure 2(a))."""
        if not new_nodes:
            self._register_root(LeafNode(MIN_KEY, time), time)
            return
        if len(new_nodes) == 1:
            self._register_root(new_nodes[0], time)
            return
        new_root = IndexNode(MIN_KEY, time)
        first, second = new_nodes
        new_root.append(IndexEntry(MIN_KEY, time, NOW, first))
        new_root.append(IndexEntry(second.key_low, time, NOW, second))
        self._register_root(new_root, time)

    def _register_root(self, root: Node, time: int) -> None:
        root.key_low = MIN_KEY
        root.key_high = None
        if self._root_starts and self._root_starts[-1] == time:
            # Same-version re-split of the root: replace in place.
            self._roots[-1] = root
        else:
            self._root_starts.append(time)
            self._roots.append(root)

    def _check_parent(self, path: list[Node], time: int) -> None:
        """Propagate overflow/underflow upward after child replacement."""
        node = path[-1]
        cfg = self.config
        if node.count > cfg.block_capacity:
            self._restructure(path, time)
            return
        if len(path) > 1 and node.live_count < cfg.weak_min:
            self._restructure(path, time)
            return
        if (
            len(path) == 1
            and not node.is_leaf
            and node.live_count == 1
        ):
            # Height shrink: the single live child becomes the live root.
            # The old root is retired: its routing entry ends now (future
            # queries go straight to the child) and the node itself dies,
            # staying in the registry for historical descents only.
            child = node.live_entries()[0].child
            node.end_child(child, time)
            node.kill(time)
            self._register_root(child, time)

    # -------------------------------------------------------------- queries

    def iter_nodes(self) -> Iterator[Node]:
        """All nodes of the forest, depth-first, each exactly once."""
        seen: set[int] = set()
        stack: list[Node] = list(self._roots)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            if not node.is_leaf:
                stack.extend(e.child for e in node.entries())

    def leaf_nodes(self) -> Iterator[LeafNode]:
        """All leaf nodes of the forest."""
        return (n for n in self.iter_nodes() if n.is_leaf)

    def compress(self) -> None:
        """Delta-compress every leaf node (Section 4.2), each read through
        :attr:`memo`, and keep the tree compressed from here on: version
        splits create their leaves packed, and writes edit the packed
        bytes."""
        for leaf in self.leaf_nodes():
            leaf.compress(self.memo)
        self._packed = True

    def decompress(self) -> None:
        """Expand every leaf back to the plain entry-list backend."""
        self._packed = False
        for leaf in self.leaf_nodes():
            leaf.decompress()

    def sizeof(self) -> int:
        """Storage-layout size of the whole forest in bytes."""
        return sum(node.sizeof() for node in self.iter_nodes())

    def live_start(self, key: Key) -> int | None:
        """Start version of ``key``'s live entry, or ``None`` when the key
        is not live: one descent plus the leaf's live-key probe.

        A start at the leaf's birth may be a version-split copy's: the
        key's only entry in its leaf, live at the death of the predecessor
        whose key region holds it.  The walk then follows the key back,
        one decoded leaf per split, to the entry that is not a copy.  A
        same-chronon delete and re-insert leaves a second entry behind the
        copy and stops the walk.  Copies in trees restored from older
        snapshots keep their raw start, which ends the walk at once.
        """
        leaf = self._descend(key)[-1]
        start = leaf.live_start(key)
        if start != leaf.start:
            return start
        entries = [row for row in leaf.rows() if row[0] == key]
        while len(entries) == 1 and entries[0][1] == leaf.start:
            pred = next((p for p in leaf.predecessors if p.key_low <= key
                         and (p.key_high is None or key < p.key_high)), None)
            if pred is None:
                break
            prior = [row for row in pred.rows() if row[0] == key]
            if not prior or prior[-1][2] != NOW:
                break
            leaf, entries = pred, prior
        return entries[-1][1]

    def history(self) -> Iterator[tuple[Key, int, int]]:
        """Every ``(key, start, end)`` ever recorded, each exactly once, in
        one pass over the leaves, each read after the leaves it was
        copied from (no particular order of rows).

        An ended entry sits in the one leaf it was ended in; a live one
        counts in the alive leaf only.  A version split copies each live
        entry forward with the split as its start, so the true start of
        every key live at a leaf's death is carried into the copy its
        successor holds: the key's first entry there (a same-chronon
        delete and re-insert comes after it).  Copies in trees restored
        from older snapshots keep their raw start, and carrying it changes
        nothing.  Entries ended at their own true start version were never
        visible and are skipped.
        """
        leaves = self._lineage()
        # Successors yet to read each dead leaf's carried starts.
        readers: dict[int, int] = {}
        for leaf in leaves:
            for pred in leaf.predecessors:
                readers[id(pred)] = readers.get(id(pred), 0) + 1
        carried: dict[int, dict[Key, int]] = {}
        for leaf in leaves:
            starts: dict[Key, int] = {}
            for pred in leaf.predecessors:
                starts.update(carried[id(pred)])
                readers[id(pred)] -= 1
                if not readers[id(pred)]:
                    del carried[id(pred)]
            alive = leaf.is_alive
            at_death: dict[Key, int] = {}
            for key, start, end in leaf.rows():
                if starts:
                    start = starts.pop(key, start)
                if end != NOW:
                    if end > start:
                        yield key, start, end
                elif alive:
                    yield key, start, end
                else:
                    at_death[key] = start
            if readers.get(id(leaf)):
                carried[id(leaf)] = at_death

    def _lineage(self) -> list[LeafNode]:
        """Every leaf of the forest, each after its predecessors."""
        order: list[LeafNode] = []
        placed: set[int] = set()
        for leaf in self._all_nodes():
            stack = [leaf] if leaf.is_leaf else []
            while stack:
                node = stack[-1]
                if id(node) in placed:
                    stack.pop()
                    continue
                waiting = [p for p in node.predecessors
                           if id(p) not in placed]
                if waiting:
                    stack += waiting
                else:
                    placed.add(id(node))
                    order.append(stack.pop())
        return order

    # -------------------------------------------------------- serialization

    def _all_nodes(self) -> list[Node]:
        """Every node of the forest, including nodes reachable only through
        backward (predecessor) links — same-version root replacement can
        drop a node from the registry while scans still ride its link."""
        seen: set[int] = set()
        out: list[Node] = []
        stack: list[Node] = list(self._roots)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            out.append(node)
            if not node.is_leaf:
                stack.extend(e.child for e in node.entries())
            stack.extend(node.predecessors)
        return out

    def dump_state(self) -> dict:
        """Plain-data state of the whole forest (snapshot payloads).

        The node graph is flattened into a table indexed by dense ids so
        serialization never recurses through child or predecessor links.
        """
        nodes = self._all_nodes()
        node_ids = {id(n): i for i, n in enumerate(nodes)}
        cfg = self.config
        return {
            "config": (cfg.block_capacity, cfg.weak_min, cfg.epsilon),
            "now": self._now,
            "live_records": self._live_records,
            "total_versions": self._total_versions,
            "root_starts": list(self._root_starts),
            "roots": [node_ids[id(r)] for r in self._roots],
            "nodes": [n.dump_state(node_ids) for n in nodes],
            "packed": self._packed,
        }

    @classmethod
    def load_state(cls, state: dict, memo: MemoTable | None = None) -> "MVBT":
        """Rebuild a tree from :meth:`dump_state` output, its packed
        leaves reading through ``memo`` (an engine's table; by default
        the tree's own)."""
        capacity, weak_min, epsilon = state["config"]
        tree = cls(MVBTConfig(capacity, weak_min, epsilon), memo)
        shells = [Node.shell_from_state(s) for s in state["nodes"]]
        for node, node_state in zip(shells, state["nodes"]):
            node.restore_entries(node_state, shells)
            node.predecessors = [
                shells[i] for i in node_state["predecessors"]
            ]
        tree._root_starts = list(state["root_starts"])
        tree._roots = [shells[i] for i in state["roots"]]
        tree._now = state["now"]
        tree._live_records = state["live_records"]
        tree._total_versions = state["total_versions"]
        # Snapshots written before the key existed: any packed leaf means
        # the tree was compressed.
        packed = state.get("packed")
        if packed is None:
            packed = any(n.is_leaf and n.is_compressed for n in shells)
        if packed:
            # Attaches every restored store to the table; snapshots
            # written while split-born leaves stayed plain until they
            # died also get those packed now.
            tree.compress()
        return tree

    # ----------------------------------------------------------------- audit

    def check_invariants(self) -> None:
        """Assert MVBT structural invariants (used by property tests)."""
        cfg = self.config
        roots = set(map(id, self._roots))
        for node in self.iter_nodes():
            # A node may gain up to two fresh routing entries from a child
            # merge-and-key-split before its own overflow restructure kills
            # it, so dead nodes can exceed the block capacity by two.
            limit = cfg.block_capacity if node.is_alive else cfg.block_capacity + 2
            assert node.count <= limit, (
                f"block overflow left unresolved: {node!r}"
            )
            live = node.live_count
            recount = [e for e in node.entries() if e.is_live]
            assert live == len(recount), f"live count drifted: {node!r}"
            node.check_live_path(recount)
            if node.is_alive and id(node) not in roots:
                assert live >= cfg.weak_min, (
                    f"weak version condition violated: {node!r}"
                )
            if not node.is_leaf and node.is_alive:
                self._check_partition(node)
            if self._packed and node.is_leaf:
                assert node.is_compressed, (
                    f"plain leaf in a packed tree: {node!r}"
                )

    def _check_partition(self, node: IndexNode) -> None:
        """Live routing entries must partition the key region."""
        alive = node.live_entries()
        keys = [e.key for e in alive]
        assert keys == sorted(set(keys)), f"routing keys collide: {node!r}"
        for entry in alive:
            assert entry.child.is_alive, (
                f"live entry points to dead child: {node!r}"
            )


def change_events(
    records: Iterable[tuple[Key, int, int]],
) -> list[tuple[int, int, Key]]:
    """The transaction-time history of interval-encoded records
    ``(key, start, end)``: one ``(time, kind, key)`` event per insert
    (kind 0, at ``start``) and per delete (kind 1, at ``end`` unless
    live), in the order the paper's construction replays them
    (Section 4.1.2)."""
    inserts: list[tuple[int, int, Key]] = []
    deletes: list[tuple[int, int, Key]] = []
    for key, start, end in records:
        inserts.append((start, 0, key))
        if end != NOW:
            deletes.append((end, 1, key))
    # Deletes before inserts at the same chronon so a key can be replaced
    # within one chronon without tripping the duplicate check: the sort
    # by time is stable, so listing the deletes first does it.
    events = deletes + inserts
    events.sort(key=_EVENT_TIME)
    return events


def replay(tree: MVBT, events: Iterable[tuple[int, int, Key]],
           payload: Any = None) -> None:
    """Apply time-ordered :func:`change_events` to ``tree`` — the tree's
    one mutation loop (:meth:`MVBT.insert` and :meth:`MVBT.delete` are
    one-event calls into it); inserted entries carry ``payload``.

    Each event descends the live path by the index nodes' live routing
    arrays, then makes one leaf call: :meth:`LeafNode.insert_live` (the
    duplicate probe and the append) or :meth:`LeafNode.end_live`.  An
    overflow or weak underflow restructures the leaf (version split, then
    key split or merge) as the event's last step, on a second descent
    that records the path.  The watermark and the record counts stay in
    locals and are written back, with the insert and delete counters,
    when the loop ends: a rejected event (:class:`TimeOrderError`,
    :class:`DuplicateKeyError`, ``KeyError`` on a delete of a key that is
    not live, a codec's :class:`~repro.mvbt.compression.CompressionError`)
    raises before it changes anything, and the tree is left as the event
    before it left it.
    """
    roots = tree._roots
    config = tree.config
    now = tree._now
    live_records = live_before = tree._live_records
    versions = versions_before = tree._total_versions
    try:
        for time, kind, key in events:
            if time < now:
                raise TimeOrderError(f"operation at {time} after watermark {now}")
            root = node = roots[-1]
            while not node.is_leaf:
                # The live routing array is the partition from the node's
                # last change on, which on the live path is never ahead of
                # the watermark (IndexNode.route).
                alive = (node._live if now >= node._changed
                         else node._partition(now))
                at = bisect_right(alive, key, key=_ENTRY_KEY) - 1
                if at < 0:
                    raise LookupError(
                        f"no route for key {key!r} at version {now}"
                    )
                node = alive[at].child
            if kind == 0:
                count = node.insert_live(LeafEntry(key, time, NOW, payload))
                if not count:
                    raise DuplicateKeyError(f"key already live: {key!r}")
                now = time
                live_records += 1
                versions += 1
                if count <= config.block_capacity:
                    continue
            else:
                if not node.end_live(key, time):
                    raise KeyError(f"key not live: {key!r}")
                now = time
                live_records -= 1
                if node is root or node._live_count >= config.weak_min:
                    continue
            # A structure change, rare enough to descend again for the
            # path it needs (the leaf event moved no routing entry); the
            # descent routes at the tree's watermark, so that goes first.
            tree._now = now
            tree._restructure(tree._descend(key), time)
    finally:
        tree._now = now
        tree._live_records = live_records
        tree._total_versions = versions
        if _metrics.ENABLED:
            inserted = versions - versions_before
            deleted = live_before + inserted - live_records
            if inserted:
                _INSERTS.inc(inserted)
            if deleted:
                _DELETES.inc(deleted)


def bulk_load(tree: MVBT, records: Iterable[tuple[Key, int, int]]) -> None:
    """Load interval-encoded records ``(key, start, end)`` into ``tree`` by
    replaying their change history in time order: one :func:`replay` of
    every event."""
    replay(tree, change_events(records))
