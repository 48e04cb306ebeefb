"""Shard assignment: who owns a triple, which shards answer a star.

Triples are hash-partitioned on **subject**: the three MVBT indices all key
on whole (s, p, o) permutations, so any pattern with a bound subject is
answerable by exactly one shard, and every update — which names its full
triple — has exactly one owner.  The hash is ``zlib.crc32`` of the UTF-8
term, *never* Python's builtin ``hash()``: string hashing is salted per
process (PYTHONHASHSEED), and a shard map that moves between runs would
orphan every triple on restart.

Routing reads the subjects alone, so the planner keeps no state beyond
the shard count.  When every pattern shares one subject term (a *subject
star*), each shard that can hold the subject evaluates the full query
alone (:meth:`ShardPlanner.star_shards`): its constant owner, or every
shard for a variable subject.  That is always correct, since shards are
disjoint by subject and partial results union cleanly.
"""

from __future__ import annotations

import zlib

from ..model.graph import TemporalGraph
from ..model.time import NOW
from ..sparqlt.ast import GroupGraphPattern, TermConst


def shard_of(term: str, shards: int) -> int:
    """The shard owning subject ``term`` in an N-shard topology.

    Deterministic across processes, runs, and machines (crc32 of UTF-8).
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    return zlib.crc32(term.encode("utf-8")) % shards


class ShardPlanner:
    """Partitions datasets and routes stars for an N-shard topology.

    Instances are plain picklable state (the shard count), so a
    coordinator restart — or a test pickling the planner — reproduces
    identical routing.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards

    # ---------------------------------------------------------- partitioning

    def partition(self, graph: TemporalGraph) -> list[list[list]]:
        """Split ``graph`` into one disjoint list of bulk-load rows per
        shard, in ``graph``'s order: ``[subject, predicate, object, start,
        end]``, ``None`` for an open end.

        Rows carry strings: each shard's dictionary encodes only its own
        terms (shared-nothing, so ids differ per shard — which is why the
        coordinator joins on decoded strings).
        """
        parts: list[list[list]] = [[] for _ in range(self.shards)]
        decode = graph.dictionary.decode
        for sid, pid, oid, start, end in graph.encoded_rows():
            subject = decode(sid)
            parts[shard_of(subject, self.shards)].append(
                [subject, decode(pid), decode(oid), start,
                 None if end == NOW else end])
        return parts

    # --------------------------------------------------------------- routing

    def star_shards(self, group: GroupGraphPattern) -> list[int] | None:
        """The shards that answer the whole query, or ``None``.

        Shards partition on subject, so a query whose quad patterns —
        base, UNION and OPTIONAL alike — all share one subject term finds
        every binding of that subject on the subject's own shard: each
        shard answers it alone, and the answer is the union of theirs.

        * A constant subject routes to its owner shard.  So do distinct
          constant subjects that all hash to one shard.
        * A variable subject routes to every shard.
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
        return list(range(self.shards))
