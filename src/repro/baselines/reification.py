"""RDF reification baseline: the "Jena Reification" approach (Sec 4, 7.1.2).

Standard RDF cannot annotate a triple, so each temporal fact becomes a
*statement entity* with five properties::

    _:stmt rdf:subject   <s>
    _:stmt rdf:predicate <p>
    _:stmt rdf:object    <o>
    _:stmt :startTime    "ts"
    _:stmt :endTime      "te"

stored in an ordinary (non-temporal) triple store with hash indexes on SPO
positions, the structure of Jena's in-memory model.  A SPARQLT pattern
rewrites to a five-pattern BGP; matching walks the statement entities via
index-nested-loop lookups.

The measured weaknesses this reproduces: 5x triple blowup (Figure 8(b)) and
per-statement pointer chasing plus the extra joins of the rewritten BGP
(Figure 9's two-orders-of-magnitude gap on selections and joins).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from ..model.graph import TemporalGraph
from ..model.time import Period
from ..sparqlt.ast import QuadPattern
from .base import Row, TemporalBaseline

#: Property ids of the reification schema (negative: never collide with
#: dictionary ids).
RDF_SUBJECT = -10
RDF_PREDICATE = -11
RDF_OBJECT = -12
START_TIME = -13
END_TIME = -14


class ReificationBaseline(TemporalBaseline):
    """A reified triple store with positional hash indexes."""

    name = "Jena Ref"

    def __init__(self) -> None:
        super().__init__()
        #: number of reified statements (five triples each).
        self.statement_count = 0
        #: the reified triple table: (prop, statement) -> value, i.e. the
        #: PS0-style index a triple store would use for ``(stmt, p, ?o)``.
        self.triples: dict[tuple[int, int], int] = {}
        #: positional hash indexes over the reified triples: (prop, value)
        #: posting lists, the store's POS-style access path.
        self.by_property_value: dict[tuple[int, int], list[int]] = {}

    def _build(self, graph: TemporalGraph) -> None:
        self.by_property_value = defaultdict(list)
        self.triples = {}
        for sid, pid, oid, start, end in graph.encoded_rows():
            statement_id = self.statement_count
            self.statement_count += 1
            properties = (
                (RDF_SUBJECT, sid),
                (RDF_PREDICATE, pid),
                (RDF_OBJECT, oid),
                (START_TIME, start),
                (END_TIME, end),
            )
            for prop, value in properties:
                self.triples[(prop, statement_id)] = value
            # Index the three entity-valued positions (time literals are
            # fetched per statement, as with Jena's find(stmt, p, ?)).
            for prop, value in properties[:3]:
                self.by_property_value[(prop, value)].append(statement_id)

    # ------------------------------------------------------------- matching

    def match_pattern(
        self, pattern: QuadPattern, window: Period
    ) -> Iterator[Row]:
        ids = self.term_ids(pattern)
        if any(v == -1 for v in ids):
            return iter(())
        candidates = self._bgp_candidates(ids)
        sid, pid, oid = ids
        triples = self.triples
        # Generic BGP evaluation of the rewritten five-pattern query, the
        # way a SPARQL engine's iterator pipeline runs it: each triple
        # pattern is a stage that looks up one property per incoming
        # binding and materializes an extended binding.  The per-stage
        # binding materialization is the cost the paper charges the
        # reification rewrite with (five patterns per temporal fact).
        bindings = [{"stmt": statement_id} for statement_id in candidates]
        stages = (
            ("s", RDF_SUBJECT, sid),
            ("p", RDF_PREDICATE, pid),
            ("o", RDF_OBJECT, oid),
            ("ts", START_TIME, None),
            ("te", END_TIME, None),
        )
        for name, prop, constant in stages:
            extended = []
            for binding in bindings:
                value = triples[(prop, binding["stmt"])]
                if constant is not None and value != constant:
                    continue
                new_binding = dict(binding)
                new_binding[name] = value
                extended.append(new_binding)
            bindings = extended
        records = []
        for binding in bindings:
            start, end = binding["ts"], binding["te"]
            if start < window.end and window.start < end:
                records.append(
                    (binding["s"], binding["p"], binding["o"],
                     Period(start, end))
                )
        return self.rows_from_records(pattern, records, window)

    def _bgp_candidates(self, ids) -> Iterator[int]:
        """Statements matching the most selective bound position, as an
        index-nested-loop BGP evaluation would start."""
        sid, pid, oid = ids
        lists = []
        for prop, value in (
            (RDF_SUBJECT, sid),
            (RDF_OBJECT, oid),
            (RDF_PREDICATE, pid),
        ):
            if value is not None:
                lists.append(self.by_property_value.get((prop, value), []))
        if not lists:
            return iter(range(self.statement_count))
        return iter(min(lists, key=len))

    # ----------------------------------------------------------------- size

    def sizeof(self) -> int:
        """Five triples per fact at three 8-byte node refs each, plus the
        statement node itself, positional index postings, and the
        dictionary — the 3-4x blowup of Figure 8(b)."""
        n = self.statement_count
        triples = n * 5 * 3 * 8
        statement_nodes = n * 16
        postings = n * 3 * 8 + len(self.by_property_value) * 48
        dictionary = self.term_bytes()
        return triples + statement_nodes + postings + dictionary
