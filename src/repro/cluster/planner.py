"""Shard assignment: who owns a triple, who can answer a pattern.

Triples are hash-partitioned on **subject**: the three MVBT indices all key
on whole (s, p, o) permutations, so any pattern with a bound subject is
answerable by exactly one shard, and every update — which names its full
triple — has exactly one owner.  The hash is ``zlib.crc32`` of the UTF-8
term, *never* Python's builtin ``hash()``: string hashing is salted per
process (PYTHONHASHSEED), and a shard map that moves between runs would
orphan every triple on restart.

Patterns with an unbound subject cannot be routed by subject; the planner
falls back to the **predicate map** (predicate -> shards that hold at
least one triple with it, maintained on writes).  Pruning by the map is
only sound while the map is **complete** — covering every triple the
cluster holds — which is true exactly when it was built by
:meth:`ShardPlanner.partition` (bulk load) or rebuilt from shard-side
inventories via :meth:`ShardPlanner.rebuild_predicate_map` (coordinator
bootstrap over pre-existing shard directories).  Before that,
``note_write`` entries are additive hints only: a restarted coordinator
that has observed one write of predicate P must not route P to that one
shard while pre-loaded P triples live elsewhere, so an incomplete map
broadcasts.  A predicate-bound pattern under a complete map fans out only
to the shards that can possibly match; anything less constrained
broadcasts to all shards — always correct, since shards are disjoint by
subject and partial results union cleanly.

The same disjointness answers whole queries: when every pattern shares
one subject term (a *subject star*), each shard that can hold the
subject evaluates the full query alone (:meth:`ShardPlanner.star_shards`).
"""

from __future__ import annotations

import zlib

from ..model.graph import TemporalGraph
from ..model.time import NOW
from ..sparqlt.ast import GroupGraphPattern, QuadPattern, TermConst


def shard_of(term: str, shards: int) -> int:
    """The shard owning subject ``term`` in an N-shard topology.

    Deterministic across processes, runs, and machines (crc32 of UTF-8).
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    return zlib.crc32(term.encode("utf-8")) % shards


class ShardPlanner:
    """Partitions datasets and routes patterns for an N-shard topology.

    Instances are plain picklable state (shard count + predicate map), so
    a coordinator restart — or a test pickling the planner — reproduces
    identical routing.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards
        #: predicate -> sorted shard ids holding at least one such triple.
        self.predicate_map: dict[str, list[int]] = {}
        #: True only while the map covers *every* triple in the cluster
        #: (set by :meth:`partition` / :meth:`rebuild_predicate_map`).
        #: A fresh planner over pre-existing shard directories starts
        #: incomplete, and an incomplete map must never prune.
        self.predicate_map_complete = False

    # ---------------------------------------------------------- partitioning

    def partition(self, graph: TemporalGraph) -> list[list[list]]:
        """Split ``graph`` into one disjoint list of bulk-load rows per
        shard, in ``graph``'s order: ``[subject, predicate, object, start,
        end]``, ``None`` for an open end.

        Rows carry strings: each shard's dictionary encodes only its own
        terms (shared-nothing, so ids differ per shard — which is why the
        coordinator joins on decoded strings).  The predicate map is
        rebuilt in the same pass.
        """
        parts: list[list[list]] = [[] for _ in range(self.shards)]
        predicate_shards: dict[str, set[int]] = {}
        decode = graph.dictionary.decode
        for sid, pid, oid, start, end in graph.encoded_rows():
            subject = decode(sid)
            predicate = decode(pid)
            shard = shard_of(subject, self.shards)
            parts[shard].append([subject, predicate, decode(oid), start,
                                 None if end == NOW else end])
            predicate_shards.setdefault(predicate, set()).add(shard)
        self.predicate_map = {
            predicate: sorted(owners)
            for predicate, owners in sorted(predicate_shards.items())
        }
        self.predicate_map_complete = True
        return parts

    def rebuild_predicate_map(self, inventories: list[list[str]]) -> None:
        """Rebuild the map from per-shard predicate inventories.

        ``inventories[shard]`` lists the distinct predicates that shard
        holds.  The coordinator calls this at bootstrap, so a restart
        over pre-existing shard directories regains a complete —
        pruning-capable — map instead of the incomplete one that
        ``note_write`` alone would accumulate.
        """
        if len(inventories) != self.shards:
            raise ValueError(
                f"expected {self.shards} inventories, "
                f"got {len(inventories)}"
            )
        predicate_shards: dict[str, set[int]] = {}
        for shard, predicates in enumerate(inventories):
            for predicate in predicates:
                predicate_shards.setdefault(predicate, set()).add(shard)
        self.predicate_map = {
            predicate: sorted(owners)
            for predicate, owners in sorted(predicate_shards.items())
        }
        self.predicate_map_complete = True

    def note_write(self, subject: str, predicate: str) -> int:
        """Record a write's predicate in the map; returns the owner shard.

        Entries are additive: they keep a complete map complete, and on
        an incomplete map they are inert hints (routing broadcasts until
        :meth:`partition` or :meth:`rebuild_predicate_map` runs).
        """
        shard = shard_of(subject, self.shards)
        owners = self.predicate_map.setdefault(predicate, [])
        if shard not in owners:
            owners.append(shard)
            owners.sort()
        return shard

    # --------------------------------------------------------------- routing

    def shards_for_pattern(self, pattern: QuadPattern) -> list[int]:
        """The shards that must be consulted for ``pattern``.

        Bound subject -> exactly its owner.  Unbound subject but bound
        predicate -> the predicate's known owners, but only while the
        map is complete: an incomplete map (coordinator restarted over
        pre-loaded shard directories, before ``rebuild_predicate_map``)
        may know only the shards written *since startup*, and pruning by
        it would silently drop pre-loaded triples on other shards — so
        it broadcasts instead.  A complete map with no entry for the
        predicate still broadcasts, which is always correct, just
        conservative.
        """
        if isinstance(pattern.subject, TermConst):
            return [shard_of(pattern.subject.value, self.shards)]
        if isinstance(pattern.predicate, TermConst) \
                and self.predicate_map_complete:
            owners = self.predicate_map.get(pattern.predicate.value)
            if owners is not None:
                return list(owners)
        return list(range(self.shards))

    def star_shards(self, group: GroupGraphPattern) -> list[int] | None:
        """The shards that answer the whole query, or ``None``.

        Shards partition on subject, so a query whose quad patterns —
        base, UNION and OPTIONAL alike — all share one subject term finds
        every binding of that subject on the subject's own shard: each
        shard answers it alone, and the answer is the union of theirs.

        * A constant subject routes to its owner shard.  So do distinct
          constant subjects that all hash to one shard.
        * A variable subject routes to the shards that
          :meth:`shards_for_pattern` allows for *every* base pattern,
          since a row needs each base pattern to match on one shard (all
          shards while the predicate map is incomplete).  When no shard
          is left the answer is empty; one shard still evaluates the
          query, so a static error is raised as everywhere else.
        * One shard holds everything and routes every query.

        Anything else — two subject terms, one of them a variable, or a
        chain through an object — is ``None``: the coordinator joins the
        answers of its stars.
        """
        if self.shards == 1:
            return [0]
        subjects = {pattern.subject for pattern in group.quad_patterns()}
        if all(isinstance(subject, TermConst) for subject in subjects):
            owners = {shard_of(subject.value, self.shards)
                      for subject in subjects}
            return list(owners) if len(owners) == 1 else None
        if len(subjects) != 1:
            return None
        allowed = set(range(self.shards))
        for pattern in group.patterns:
            allowed.intersection_update(self.shards_for_pattern(pattern))
        return sorted(allowed) or [0]
