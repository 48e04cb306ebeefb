"""The temporal histogram of RDF-TX (Sections 6.2 - 6.3).

The histogram makes characteristic-set statistics *temporal*: for any time
window it estimates (i) the number of distinct subjects of a characteristic
set that are alive in the window and (ii) the number of occurrences of a
predicate within those subjects.  Each statistic needs two CMVSBTs — one
over the *start* points and one over the *end* points of the records — so the
histogram consists of four CMVSBTs plus the characteristic-set schema.

A range query over (key range, time window) reduces to four dominance
queries (Section 6.3)::

    Q(k1<k<=k2, [t1,t2)) = Qs(k2, t2-1) - Qe(k2, t1)
                         - Qs(k1, t2-1) + Qe(k1, t1)

``Qs(k, t)`` counts records with key <= k started at or before ``t``;
``Qe(k, t)`` counts those already ended by ``t`` (live records have no end
point and are never subtracted).

A build replays the history once; from then on every write the engine
applies lands here as time-ordered points (:meth:`TemporalHistogram.insert`,
:meth:`TemporalHistogram.delete`), so the statistics stay current without
a rebuild.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from ..model.graph import TemporalGraph, raw_size
from ..model.time import NOW
from .compressed import CMVSBT


@dataclass
class CharacteristicSets:
    """Characteristic sets of a temporal RDF graph (Neumann & Moerkotte).

    ``SC(s) = {p | exists o, (s, p, o) in R}``, computed over the whole
    history: semantically similar subjects share the set regardless of when
    their facts held.
    """

    #: charset id -> frozenset of predicate ids
    sets: list[frozenset] = field(default_factory=list)
    #: subject id -> charset id
    of_subject: dict = field(default_factory=dict)
    #: predicate id -> charset ids whose set contains it
    with_predicate: dict = field(default_factory=dict)
    #: frozenset of predicate ids -> charset id
    ids: dict = field(default_factory=dict)
    #: predicate ids over all the sets (the schema's size)
    members: int = 0

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "CharacteristicSets":
        """From encoded ``(sid, pid, oid, start, end)`` rows."""
        predicates_of: dict[int, set[int]] = defaultdict(set)
        for sid, pid, _, _, _ in rows:
            predicates_of[sid].add(pid)
        charsets = cls()
        for subject, predicates in predicates_of.items():
            charsets.of_subject[subject] = charsets.charset(
                frozenset(predicates))
        return charsets

    def charset(self, predicates: frozenset) -> int:
        """The id of the set ``predicates``, appended when new."""
        cs_id = self.ids.get(predicates)
        if cs_id is None:
            cs_id = len(self.sets)
            self.ids[predicates] = cs_id
            self.sets.append(predicates)
            self.members += len(predicates)
            for predicate in predicates:
                self.with_predicate.setdefault(predicate, []).append(cs_id)
        return cs_id

    def __len__(self) -> int:
        return len(self.sets)


class _StatPair:
    """A start/end CMVSBT pair answering windowed range counts."""

    def __init__(self, starts: CMVSBT, ends: CMVSBT) -> None:
        self.starts = starts
        self.ends = ends

    def count_alive(self, k1: int, k2: int, t1: int, t2: int) -> float:
        """Records with key in (k1, k2] whose interval intersects [t1, t2)."""
        if t1 >= t2 or k1 >= k2:
            return 0.0
        upper = min(t2 - 1, 2**31)
        started = self.starts.estimate(k2, upper) - self.starts.estimate(k1, upper)
        ended = self.ends.estimate(k2, t1) - self.ends.estimate(k1, t1)
        return max(started - ended, 0.0)

    def sizeof(self) -> int:
        return self.starts.sizeof() + self.ends.sizeof()


class _StatEvents:
    """The start and end points of one statistic's records: collected and
    time-sorted once per build, replayed into a fresh :class:`_StatPair`
    for every candidate threshold."""

    def __init__(self) -> None:
        self._starts: list[tuple[int, int, float]] = []
        self._ends: list[tuple[int, int, float]] = []

    def add(self, key: int, start: int, end: int, weight: float = 1.0) -> None:
        self._starts.append((start, key, weight))
        if end != NOW:
            self._ends.append((end, key, weight))

    def seal(self) -> None:
        """Put the points in time order (CMVSBT requirement)."""
        self._starts.sort(key=lambda e: e[0])
        self._ends.sort(key=lambda e: e[0])

    def replay(self, cm: int, lm: int) -> _StatPair:
        pair = _StatPair(CMVSBT(cm=cm, lm=lm), CMVSBT(cm=cm, lm=lm))
        for events, tree in (
            (self._starts, pair.starts),
            (self._ends, pair.ends),
        ):
            insert = tree.insert
            for time, key, weight in events:
                insert(key, time, weight)
        return pair


class TemporalHistogram:
    """Temporal statistics for the SPARQLT optimizer.

    Keys: the subject pair is keyed by charset id; the occurrence pair by
    the composite ``charset_id * stride + predicate_id`` for the sets the
    build found (the stride is past the largest predicate id).  A set first
    made by a write gets a fresh run of keys past every key in use, one per
    predicate in the order of their ids: any predicate id fits, and no two
    predicates of one set share a key.  Non-temporal side tables
    (predicate/object frequencies) back the estimates the
    characteristic-set framework cannot express (O- and PO-bound patterns).

    ``budget_fraction`` bounds the histogram at that fraction of the raw data
    size; :meth:`build` picks the finest doubling of the constructor's
    ``cm``/``lm`` that stays inside it (equivalent to the paper's entry
    merging) and exposes the choice as :attr:`cm`/:attr:`lm`.  Writes keep
    both sizes current; while the histogram is past its budget, each write
    doubles ``cm`` for the points after it (:meth:`_check_budget`).
    """

    def __init__(
        self,
        cm: int = 8,
        lm: int = 8,
        budget_fraction: float = 0.10,
    ) -> None:
        self._base = (cm, lm)
        self.cm = cm
        self.lm = lm
        self.budget_fraction = budget_fraction
        self.charsets = CharacteristicSets()
        self._subjects: _StatPair | None = None
        self._occurrences: _StatPair | None = None
        self._stride = 1
        self.total_triples = 0
        self.distinct_objects_of: dict[int, int] = {}
        self.object_frequency: dict[int, int] = {}
        self.predicate_frequency: dict[int, int] = {}
        #: CMVSBT sets the last :meth:`build` constructed chasing the budget.
        self.candidates_built = 0
        #: Raw bytes of the history the statistics describe (the budget's
        #: base), kept current by :meth:`insert`.
        self.raw_bytes = 0
        #: Sets the build found; their keys follow the stride.
        self._built = 0
        #: Occurrence keys of each later set, by predicate id.
        self._keys_of: list[dict[int, int]] = []
        #: One past the largest occurrence key any set may use.
        self._top = 0

    # ---------------------------------------------------------------- build

    #: How many times the thresholds may double chasing the space budget.
    MAX_COARSENING_ROUNDS = 6

    def build(self, graph: TemporalGraph) -> None:
        """(Re)build the histogram from a temporal graph."""
        rows = graph.encoded_rows()
        self.build_rows(rows, raw_size(graph.dictionary, rows))

    def build_rows(self, rows: Sequence[tuple], raw: int,
                   start: tuple[int, int] | None = None) -> None:
        """(Re)build the histogram from encoded ``(sid, pid, oid, start,
        end)`` rows that take ``raw`` bytes as raw data.

        The candidate thresholds are the constructor's ``(cm, lm)``
        doubled 0 to :data:`MAX_COARSENING_ROUNDS` times; the answer is the
        finest that fits the space budget, or the coarsest when nothing
        fits (the schema and side tables put a floor under the size that
        small graphs cannot compress away).  The rows are ingested once and
        each candidate is a replay of the same sorted events.  The search
        starts at ``start`` — typically the previous build's choice — or,
        when that is not on the ladder, at its middle rung, and walks
        toward the fit/miss boundary: finer while candidates fit, coarser
        while they miss.  Started at the answer or one rung finer, it
        builds just the answer and its finer miss.
        """
        subjects, occurrences = self._ingest(rows)
        budget = self.budget_fraction * raw
        self.candidates_built = 0
        self.raw_bytes = raw

        def candidate(rung: int) -> bool:
            # Drop the current candidate first: a miss is never kept, and a
            # fit still is (in ``kept``).
            self._subjects = self._occurrences = None
            self.cm, self.lm = (threshold << rung for threshold in self._base)
            self._subjects = subjects.replay(self.cm, self.lm)
            self._occurrences = occurrences.replay(self.cm, self.lm)
            self.candidates_built += 1
            return raw == 0 or self.core_sizeof() <= budget

        rung = self._start_rung(start)
        if candidate(rung):
            # Finer while candidates fit; the last fit is the answer.
            kept = (self.cm, self.lm, self._subjects, self._occurrences)
            while rung > 0 and candidate(rung - 1):
                rung -= 1
                kept = (self.cm, self.lm, self._subjects, self._occurrences)
            self.cm, self.lm, self._subjects, self._occurrences = kept
        else:
            # Coarser to the first fit, or to the coarsest candidate.
            while rung < self.MAX_COARSENING_ROUNDS and not candidate(rung + 1):
                rung += 1

    def _start_rung(self, start: tuple[int, int] | None) -> int:
        for rung in range(self.MAX_COARSENING_ROUNDS + 1):
            if tuple(threshold << rung for threshold in self._base) == start:
                return rung
        return self.MAX_COARSENING_ROUNDS // 2

    def _ingest(self, rows: Sequence[tuple]) -> tuple[_StatEvents, _StatEvents]:
        """Set the schema and side tables; return the (subject, occurrence)
        events every candidate replays."""
        self.charsets = CharacteristicSets.from_rows(rows)
        self._stride = max(self.charsets.with_predicate, default=0) + 2
        self._built = len(self.charsets)
        self._keys_of = []
        self._top = (self._built + 1) * self._stride
        self.total_triples = len(rows)
        subjects = _StatEvents()
        occurrences = _StatEvents()

        lifetime: dict[int, list[int]] = {}
        objects_of: dict[int, set[int]] = defaultdict(set)
        self.object_frequency = defaultdict(int)
        self.predicate_frequency = defaultdict(int)
        for sid, pid, oid, start, end in rows:
            span = lifetime.get(sid)
            if span is None:
                lifetime[sid] = [start, end]
            else:
                span[0] = min(span[0], start)
                span[1] = max(span[1], end)
            charset_id = self.charsets.of_subject[sid]
            occurrences.add(self._occ_key(charset_id, pid), start, end)
            objects_of[pid].add(oid)
            self.object_frequency[oid] += 1
            self.predicate_frequency[pid] += 1
        for subject, (start, end) in lifetime.items():
            subjects.add(self.charsets.of_subject[subject], start, end)
        subjects.seal()
        occurrences.seal()
        self.distinct_objects_of = {
            pred: len(objs) for pred, objs in objects_of.items()
        }
        return subjects, occurrences

    def _occ_key(self, charset_id: int, predicate_id: int) -> int | None:
        """The occurrence key, or ``None`` for a predicate the set's key
        layout has no room for (one no subject of the set holds)."""
        if charset_id < self._built:
            if predicate_id >= self._stride:
                return None
            return charset_id * self._stride + predicate_id
        return self._keys_of[charset_id - self._built].get(predicate_id)

    def _charset(self, predicates: frozenset) -> int:
        """:meth:`CharacteristicSets.charset`, giving a new set its run of
        occurrence keys."""
        cs_id = self.charsets.charset(predicates)
        if cs_id == self._built + len(self._keys_of):
            top = self._top
            self._keys_of.append(
                {pid: top + i for i, pid in enumerate(sorted(predicates))})
            self._top = top + len(predicates)
        return cs_id

    # --------------------------------------------------------- maintenance

    def insert(self, sid: int, pid: int, oid: int, time: int,
               term_bytes: int, probe) -> None:
        """Record a fact the engine has just started at ``time``.

        ``term_bytes`` is the UTF-8 size of its three terms (the raw-data
        growth); ``probe`` reads the indexes, which already hold the fact:
        ``probe.live_predicates(sid)`` lists the predicate of each of the
        subject's live facts, and ``probe.pair_recorded(sid, pid, oid)``
        says whether some other fact with this predicate and object was
        ever recorded.

        Every point lands at ``time``, which no CMVSBT watermark is past.
        A subject whose characteristic set grows moves to the new set's
        key: its live facts and its lifetime end under the old key and
        start again under the new one, so every end point cancels a start
        under the same key.  Its ended facts keep the key they had.
        """
        charsets = self.charsets
        subjects, occurrences = self._subjects, self._occurrences
        old = charsets.of_subject.get(sid)
        if old is None:
            new = self._charset(frozenset((pid,)))
            subjects.starts.insert(new, time)
        elif pid in charsets.sets[old]:
            new = old
            if len(probe.live_predicates(sid)) == 1:
                subjects.starts.insert(new, time)  # alive again
        else:
            new = self._charset(charsets.sets[old] | {pid})
            live = probe.live_predicates(sid)
            if len(live) > 1:
                subjects.ends.insert(old, time)
            subjects.starts.insert(new, time)
            for moved in live:
                if moved != pid:
                    occurrences.ends.insert(self._occ_key(old, moved), time)
                    occurrences.starts.insert(self._occ_key(new, moved),
                                              time)
        charsets.of_subject[sid] = new
        occurrences.starts.insert(self._occ_key(new, pid), time)
        frequency = self.object_frequency
        if not frequency.get(oid) or not probe.pair_recorded(sid, pid, oid):
            self.distinct_objects_of[pid] = (
                self.distinct_objects_of.get(pid, 0) + 1)
        frequency[oid] = frequency.get(oid, 0) + 1
        self.predicate_frequency[pid] = (
            self.predicate_frequency.get(pid, 0) + 1)
        self.total_triples += 1
        self.raw_bytes += term_bytes + 2 * 8
        self._check_budget()

    def delete(self, sid: int, pid: int, time: int, probe) -> None:
        """Record the end, at ``time``, of a fact the engine has just
        ended (``probe`` as for :meth:`insert`)."""
        charset = self.charsets.of_subject[sid]
        self._occurrences.ends.insert(self._occ_key(charset, pid), time)
        if not probe.live_predicates(sid):
            self._subjects.ends.insert(charset, time)
        self._check_budget()

    def _fits(self) -> bool:
        return (self.raw_bytes == 0
                or self.core_sizeof() <= self.budget_fraction * self.raw_bytes)

    def _check_budget(self) -> None:
        """Double the leaf threshold ``cm`` while the histogram is past
        its budget, one rung per write up to the ladder's top: the points
        after the write split leaf entries half as often.  ``lm`` stays,
        since a larger one lets every index entry buffer more points and
        so grows the histogram it is meant to shrink."""
        if self.cm < self._base[0] << self.MAX_COARSENING_ROUNDS and (
                not self._fits()):
            self.cm <<= 1
            for pair in (self._subjects, self._occurrences):
                for tree in (pair.starts, pair.ends):
                    tree.cm = self.cm

    # ------------------------------------------------------------- estimate

    def subjects_alive(self, charset_id: int, t1: int, t2: int) -> float:
        """Estimated distinct subjects of a charset alive in [t1, t2)."""
        if self._subjects is None:
            return 0.0
        return self._subjects.count_alive(charset_id - 1, charset_id, t1, t2)

    def occurrences(
        self, charset_id: int, predicate_id: int, t1: int, t2: int
    ) -> float:
        """Estimated occurrences of a predicate within a charset's subjects
        alive in [t1, t2)."""
        if self._occurrences is None:
            return 0.0
        key = self._occ_key(charset_id, predicate_id)
        if key is None:
            return 0.0
        return self._occurrences.count_alive(key - 1, key, t1, t2)

    def predicate_occurrences(
        self, predicate_id: int, t1: int, t2: int
    ) -> float:
        """Estimated occurrences of a predicate (all charsets) in a window."""
        total = 0.0
        for charset_id in self.charsets.with_predicate.get(predicate_id, ()):
            total += self.occurrences(charset_id, predicate_id, t1, t2)
        return total

    def triples_alive(self, t1: int, t2: int) -> float:
        """Estimated total triples alive in a window (full-scan estimate)."""
        if self._occurrences is None:
            return 0.0
        return self._occurrences.count_alive(-1, self._top, t1, t2)

    # ----------------------------------------------------------------- size

    def core_sizeof(self) -> int:
        """Size of the paper's temporal histogram proper: the four CMVSBTs
        plus the characteristic-set schema.  This is what the space budget
        governs (Section 6.2.2)."""
        total = 0
        if self._subjects is not None:
            total += self._subjects.sizeof()
        if self._occurrences is not None:
            total += self._occurrences.sizeof()
        return total + 16 * self.charsets.members

    def sizeof(self) -> int:
        """Full footprint, including the non-temporal side tables that back
        the O/PO-pattern estimates."""
        return self.core_sizeof() + 16 * (
            len(self.distinct_objects_of)
            + len(self.object_frequency)
            + len(self.predicate_frequency)
        )
