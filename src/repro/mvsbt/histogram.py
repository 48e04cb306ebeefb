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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

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

    @classmethod
    def from_rows(cls, rows: list[tuple]) -> "CharacteristicSets":
        """From encoded ``(sid, pid, oid, start, end)`` rows."""
        predicates_of: dict[int, set[int]] = defaultdict(set)
        for sid, pid, _, _, _ in rows:
            predicates_of[sid].add(pid)
        charsets = cls()
        index: dict[frozenset, int] = {}
        for subject, predicates in predicates_of.items():
            key = frozenset(predicates)
            cs_id = index.get(key)
            if cs_id is None:
                cs_id = len(charsets.sets)
                index[key] = cs_id
                charsets.sets.append(key)
                for predicate in key:
                    charsets.with_predicate.setdefault(predicate, []).append(
                        cs_id
                    )
            charsets.of_subject[subject] = cs_id
        return charsets

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
    the composite ``charset_id * stride + predicate_id``.  Non-temporal side
    tables (predicate/object frequencies) back the estimates the
    characteristic-set framework cannot express (O- and PO-bound patterns).

    ``budget_fraction`` bounds the histogram at that fraction of the raw data
    size; :meth:`build` picks the finest doubling of the constructor's
    ``cm``/``lm`` that stays inside it (equivalent to the paper's entry
    merging) and exposes the choice as :attr:`cm`/:attr:`lm`.
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

    # ---------------------------------------------------------------- build

    #: How many times the thresholds may double chasing the space budget.
    MAX_COARSENING_ROUNDS = 6

    def build(self, graph: TemporalGraph) -> None:
        """(Re)build the histogram from a temporal graph."""
        rows = graph.encoded_rows()
        self.build_rows(rows, raw_size(graph.dictionary, rows))

    def build_rows(self, rows: list[tuple], raw: int,
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

    def _ingest(self, rows: list[tuple]) -> tuple[_StatEvents, _StatEvents]:
        """Set the schema and side tables; return the (subject, occurrence)
        events every candidate replays."""
        self.charsets = CharacteristicSets.from_rows(rows)
        self._stride = max(self.charsets.with_predicate, default=0) + 2
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

    def _occ_key(self, charset_id: int, predicate_id: int) -> int:
        return charset_id * self._stride + predicate_id

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
        top = (len(self.charsets.sets) + 1) * self._stride
        return self._occurrences.count_alive(-1, top, t1, t2)

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
        total += 16 * sum(len(s) for s in self.charsets.sets)
        return total

    def sizeof(self) -> int:
        """Full footprint, including the non-temporal side tables that back
        the O/PO-pattern estimates."""
        return self.core_sizeof() + 16 * (
            len(self.distinct_objects_of)
            + len(self.object_frequency)
            + len(self.predicate_frequency)
        )
