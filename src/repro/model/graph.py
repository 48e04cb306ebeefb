"""Temporal RDF graphs: the load-time input format.

A :class:`TemporalGraph` is a knowledge-base history as the engine and
every baseline ingest it: dictionary-encoded, interval-encoded facts
``(s, p, o)[start, end)``, held as one flat ``(sid, pid, oid, start, end)``
tuple per fact (:meth:`TemporalGraph.encoded_rows`).  Every program path
reads those rows; iteration builds an :class:`EncodedTriple` per fact on
demand, for callers that want objects.  It is not engine state: a loaded
engine keeps the history in its MVBTs alone (``RDFTX.history_rows`` reads
it back).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterator, Sequence

from .dictionary import Dictionary
from .time import NOW, Period, PeriodSet, check_period
from .triple import EncodedTriple, TemporalTriple

#: One encoded fact: ``(sid, pid, oid, start, end)``.
Row = tuple[int, int, int, int, int]


class TemporalGraph:
    """An in-memory list of encoded temporal RDF facts and their dictionary."""

    def __init__(self) -> None:
        self.dictionary = Dictionary()
        self._rows: list[Row] = []

    def add(
        self,
        subject: str,
        predicate: str,
        object: str,
        start: int,
        end: int = NOW,
    ) -> None:
        """Add one interval-encoded fact ``(s, p, o)[start, end)``.

        The period is checked first, so a rejected fact (:class:`TimeError`)
        interns no term."""
        check_period(start, end)
        encode = self.dictionary.encode
        self._rows.append(
            (encode(subject), encode(predicate), encode(object), start, end)
        )

    def encoded_rows(self) -> Sequence[Row]:
        """The stored ``(sid, pid, oid, start, end)`` rows, in insertion
        order — the graph's own list, not a copy, typed read-only."""
        return self._rows

    @classmethod
    def from_encoded(
        cls, dictionary: Dictionary, rows: Sequence[Row]
    ) -> "TemporalGraph":
        """A graph over ``dictionary`` holding a copy of ``rows``."""
        graph = cls()
        graph.dictionary = dictionary
        graph._rows = list(rows)
        return graph

    # ----------------------------------------------------------------- views

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[EncodedTriple]:
        """Iterate the facts as :class:`EncodedTriple` objects, built on
        demand."""
        return (
            EncodedTriple(sid, pid, oid, Period(start, end))
            for sid, pid, oid, start, end in self._rows
        )

    def triples(self) -> Iterator[TemporalTriple]:
        """Iterate decoded temporal triples."""
        decode = self.dictionary.decode
        return (
            TemporalTriple(decode(sid), decode(pid), decode(oid),
                           Period(start, end))
            for sid, pid, oid, start, end in self._rows
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
        for sid, pid, oid, start, end in self._rows:
            periods[(sid, pid, oid)].append(Period(start, end))
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
        return dict(Counter(row[1] for row in self._rows))

    def distinct_subjects(self) -> int:
        """Number of distinct subject ids."""
        return len({row[0] for row in self._rows})

    def raw_size(self) -> int:
        """Size of the raw data in bytes (:func:`raw_size`)."""
        return raw_size(self.dictionary, self._rows)


def raw_size(dictionary: Dictionary, rows: Sequence[Row]) -> int:
    """Bytes of encoded ``(sid, pid, oid, start, end)`` rows as raw data:
    the flat N-Triples-like representation the paper compares index sizes
    against, string terms plus two timestamps per fact.  Each distinct
    id's UTF-8 length is taken once and weighted by its uses."""
    uses = Counter(term for row in rows for term in row[:3])
    decode = dictionary.decode
    terms = sum(len(decode(term).encode()) * n for term, n in uses.items())
    return terms + 2 * 8 * len(rows)  # start / end timestamps
