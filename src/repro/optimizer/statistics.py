"""Temporal statistics provider for the optimizer (Section 6).

Wraps the temporal histogram and exposes cardinality estimates for single
SPARQLT patterns and star joins, with the per-optimization statistics cache
described at the end of Section 6.3.
"""

from __future__ import annotations

from ..mvsbt.histogram import TemporalHistogram
from ..sparqlt.ast import TermConst, Var
from ..engine.patterns import PatternPlan


class Statistics:
    """Cardinality estimation backed by the temporal histogram."""

    def __init__(self, histogram: TemporalHistogram, dictionary) -> None:
        self.histogram = histogram
        self.dictionary = dictionary
        self._cache: dict = {}

    def clear_cache(self) -> None:
        self._cache = {}

    def _cached(self, key, compute):
        found = self._cache.get(key)
        if found is None:
            found = compute()
            self._cache[key] = found
        return found

    # ----------------------------------------------------- pattern estimate

    def pattern_cardinality(self, plan: PatternPlan) -> float:
        """Estimated matches of a single pattern inside its time window."""
        pattern = plan.pattern
        t1, t2 = plan.time_range.start, plan.time_range.end
        sid = self._term_id(pattern.subject)
        pid = self._term_id(pattern.predicate)
        oid = self._term_id(pattern.object)
        key = ("pat", sid, pid, oid, t1, t2)
        return self._cached(
            key, lambda: self._pattern_cardinality(sid, pid, oid, t1, t2)
        )

    def _term_id(self, term) -> int | None:
        if isinstance(term, Var):
            return None
        found = self.dictionary.lookup(term.value)
        return -1 if found is None else found

    def _pattern_cardinality(self, sid, pid, oid, t1, t2) -> float:
        h = self.histogram
        if sid == -1 or pid == -1 or oid == -1:
            return 0.0
        if sid is not None:
            charset = h.charsets.of_subject.get(sid)
            if charset is None:
                return 0.0
            subjects = max(h.subjects_alive(charset, t1, t2), 1.0)
            if pid is not None:
                per_subject = h.occurrences(charset, pid, t1, t2) / subjects
                if oid is not None:
                    distinct = max(h.distinct_objects_of.get(pid, 1), 1)
                    return max(per_subject / distinct, 0.01)
                return max(per_subject, 0.01)
            # S or SO / ST pattern: all predicates of the charset.
            total = sum(
                h.occurrences(charset, p, t1, t2)
                for p in h.charsets.sets[charset]
            )
            per_subject = total / subjects
            if oid is not None:
                freq = h.object_frequency.get(oid, 1)
                return max(
                    per_subject * freq / max(h.total_triples, 1), 0.01
                )
            return max(per_subject, 0.01)
        if pid is not None:
            occurrences = h.predicate_occurrences(pid, t1, t2)
            if oid is not None:
                distinct = max(h.distinct_objects_of.get(pid, 1), 1)
                return max(occurrences / distinct, 0.01)
            return max(occurrences, 0.01)
        alive = h.triples_alive(t1, t2)
        if oid is not None:
            freq = h.object_frequency.get(oid, 1)
            return max(alive * freq / max(h.total_triples, 1), 0.01)
        return max(alive, 0.01)

    # -------------------------------------------------------- star estimate

    def star_join_cardinality(
        self, predicate_ids: list[int], t1: int, t2: int
    ) -> float:
        """Characteristic-set estimate for a subject star join.

        Section 6.1's formula, summed over every characteristic set
        containing all the star's predicates::

            sum_C  |C| * prod_i  occ(C, p_i) / |C|
        """
        key = ("star", tuple(sorted(predicate_ids)), t1, t2)
        return self._cached(
            key, lambda: self._star_join(predicate_ids, t1, t2)
        )

    def _star_join(self, predicate_ids, t1, t2) -> float:
        h = self.histogram
        wanted = set(predicate_ids)
        candidates = None
        for pid in wanted:
            having = set(h.charsets.with_predicate.get(pid, ()))
            candidates = having if candidates is None else candidates & having
        if not candidates:
            return 0.0
        # The CMVSBT point estimates are the expensive primitive; cache them
        # per (charset, predicate, window) so the DP's many overlapping
        # subsets share them (the Section 6.3 statistics cache).
        subjects_of = lambda cs: self._cached(
            ("subj", cs, t1, t2), lambda: h.subjects_alive(cs, t1, t2)
        )
        occurrences_of = lambda cs, pid: self._cached(
            ("occ", cs, pid, t1, t2),
            lambda: h.occurrences(cs, pid, t1, t2),
        )
        total = 0.0
        for charset in candidates:
            subjects = subjects_of(charset)
            if subjects <= 0:
                continue
            estimate = subjects
            for pid in predicate_ids:
                estimate *= occurrences_of(charset, pid) / subjects
            total += estimate
        return total
