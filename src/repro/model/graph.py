"""Temporal RDF graphs.

A :class:`TemporalGraph` is the logical container of a knowledge-base history:
a set of interval-encoded temporal triples over a shared dictionary.  It is
the common ingestion format consumed by the RDF-TX engine and by every
baseline, so all systems index exactly the same data.  It is not engine
state: a loaded engine keeps the history in its MVBTs alone
(``RDFTX.history_rows`` reads it back).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from .dictionary import Dictionary
from .time import NOW, Period, PeriodSet
from .triple import EncodedTriple, TemporalTriple


class TemporalGraph:
    """An in-memory set of temporal RDF triples with dictionary encoding."""

    def __init__(self) -> None:
        self.dictionary = Dictionary()
        self._triples: list[EncodedTriple] = []

    # ------------------------------------------------------------------ load

    def add(
        self,
        subject: str,
        predicate: str,
        object: str,
        start: int,
        end: int = NOW,
    ) -> EncodedTriple:
        """Add one interval-encoded fact ``(s, p, o)[start, end)``."""
        encoded = EncodedTriple(
            self.dictionary.encode(subject),
            self.dictionary.encode(predicate),
            self.dictionary.encode(object),
            Period(start, end),
        )
        self._triples.append(encoded)
        return encoded

    def add_triple(self, triple: TemporalTriple) -> EncodedTriple:
        """Add a :class:`TemporalTriple`."""
        return self.add(
            triple.subject,
            triple.predicate,
            triple.object,
            triple.period.start,
            triple.period.end,
        )

    def extend(self, triples: Iterable[TemporalTriple]) -> None:
        """Bulk-add temporal triples."""
        for triple in triples:
            self.add_triple(triple)

    # ----------------------------------------------------- (de)serialization

    def encoded_rows(self) -> list[tuple[int, int, int, int, int]]:
        """Flat ``(sid, pid, oid, start, end)`` rows."""
        return [
            (t.subject, t.predicate, t.object, t.period.start, t.period.end)
            for t in self._triples
        ]

    @classmethod
    def from_encoded(
        cls,
        dictionary: Dictionary,
        rows: Iterable[tuple[int, int, int, int, int]],
    ) -> "TemporalGraph":
        """Rebuild a graph from a dictionary plus encoded rows."""
        graph = cls()
        graph.dictionary = dictionary
        graph._triples = [
            EncodedTriple(sid, pid, oid, Period(start, end))
            for sid, pid, oid, start, end in rows
        ]
        return graph

    # ----------------------------------------------------------------- views

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[EncodedTriple]:
        return iter(self._triples)

    def decode(self, encoded: EncodedTriple) -> TemporalTriple:
        """Decode an encoded triple back to its string form."""
        decode = self.dictionary.decode
        return TemporalTriple(
            decode(encoded.subject),
            decode(encoded.predicate),
            decode(encoded.object),
            encoded.period,
        )

    def triples(self) -> Iterator[TemporalTriple]:
        """Iterate decoded temporal triples."""
        return (self.decode(t) for t in self._triples)

    def history_of(
        self, subject: str, predicate: str | None = None
    ) -> list[TemporalTriple]:
        """All facts about ``subject`` (optionally one predicate), by time."""
        sid = self.dictionary.lookup(subject)
        if sid is None:
            return []
        pid = None
        if predicate is not None:
            pid = self.dictionary.lookup(predicate)
            if pid is None:
                return []
        hits = [
            t
            for t in self._triples
            if t.subject == sid and (pid is None or t.predicate == pid)
        ]
        hits.sort(key=lambda t: (t.predicate, t.period.start))
        return [self.decode(t) for t in hits]

    def validity(
        self, subject: str, predicate: str, object: str
    ) -> PeriodSet:
        """Coalesced validity of a fact (the "when" query of Example 1)."""
        sid = self.dictionary.lookup(subject)
        pid = self.dictionary.lookup(predicate)
        oid = self.dictionary.lookup(object)
        if sid is None or pid is None or oid is None:
            return PeriodSet()
        return PeriodSet(
            t.period
            for t in self._triples
            if (t.subject, t.predicate, t.object) == (sid, pid, oid)
        )

    def coalesced(self) -> "TemporalGraph":
        """A copy with each fact's periods merged into maximal intervals.

        Transaction-time histories are non-overlapping by construction, but
        *valid-time* histories (Section 2.1: "our implementation remains
        effective for most valid-time histories") may assert overlapping or
        duplicate intervals for the same fact — e.g. annotations merged
        from several sources.  The MVBT requires disjoint intervals per
        key, so valid-time ingestion goes through this normalization.
        """
        periods: dict[tuple[int, int, int], list[Period]] = defaultdict(list)
        for triple in self._triples:
            periods[(triple.subject, triple.predicate, triple.object)].append(
                triple.period
            )
        out = TemporalGraph()
        decode = self.dictionary.decode
        for (sid, pid, oid), parts in periods.items():
            subject, predicate, object_ = decode(sid), decode(pid), decode(oid)
            for period in PeriodSet(parts):
                out.add(subject, predicate, object_, period.start, period.end)
        return out

    # ------------------------------------------------------------ statistics

    def predicate_counts(self) -> dict[int, int]:
        """Number of interval triples per predicate id."""
        counts: dict[int, int] = defaultdict(int)
        for t in self._triples:
            counts[t.predicate] += 1
        return dict(counts)

    def distinct_subjects(self) -> int:
        """Number of distinct subject ids."""
        return len({t.subject for t in self._triples})

    def raw_size(self) -> int:
        """Size of the raw data in bytes (:func:`raw_size`)."""
        return raw_size(self.dictionary, self.encoded_rows())


def raw_size(
    dictionary: Dictionary, rows: Iterable[tuple[int, int, int, int, int]]
) -> int:
    """Bytes of encoded ``(sid, pid, oid, start, end)`` rows as raw data:
    the flat N-Triples-like representation the paper compares index sizes
    against, string terms plus two timestamps per fact."""
    decode = dictionary.decode
    size = 0
    for sid, pid, oid, _, _ in rows:
        size += len(decode(sid).encode())
        size += len(decode(pid).encode())
        size += len(decode(oid).encode())
        size += 2 * 8  # start / end timestamps
    return size
