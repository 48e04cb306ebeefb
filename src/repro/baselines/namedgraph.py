"""Named-graph baseline: the "Jena NG" / tau-SPARQL approach (Sec 7.1.2).

Following Tappolet & Bernstein, every distinct validity interval becomes a
*named graph* holding the triples valid exactly over that interval, with the
interval stored as graph metadata.  A temporal query iterates the graphs
whose interval intersects the query window and matches the pattern inside
each graph.

The measured weaknesses this reproduces (Figures 8(b) and 9): on a dataset
like the Wikipedia history with a huge number of distinct timestamps, most
named graphs hold fewer than five triples, so per-graph storage overhead
dominates the index size, and query evaluation touches an enormous number of
tiny graphs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from ..model.graph import TemporalGraph
from ..model.time import Period
from ..sparqlt.ast import QuadPattern
from .base import Row, TemporalBaseline

#: Fixed per-graph overhead in bytes.  Jena's named-graph implementation
#: materializes a full GraphMem per graph — its own S/P/O index maps, the
#: graph node, the name URI, and the interval metadata triples — which costs
#: on the order of a kilobyte of heap even when the graph holds one triple.
#: This constant is what makes Jena NG blow up on datasets with many
#: distinct timestamps (Figure 8(b)).
GRAPH_OVERHEAD = 960


class NamedGraphBaseline(TemporalBaseline):
    """One named graph per distinct validity interval."""

    name = "Jena NG"

    def __init__(self) -> None:
        super().__init__()
        #: interval -> triples valid exactly over that interval.
        self.graphs: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        #: graph intervals sorted by start, for the window sweep.
        self._sorted_intervals: list[tuple[int, int]] = []

    def _build(self, graph: TemporalGraph) -> None:
        graphs: dict[tuple, list] = defaultdict(list)
        for sid, pid, oid, start, end in graph.encoded_rows():
            graphs[(start, end)].append((sid, pid, oid))
        self.graphs = dict(graphs)
        self._sorted_intervals = sorted(self.graphs)

    # ------------------------------------------------------------- matching

    def match_pattern(
        self, pattern: QuadPattern, window: Period
    ) -> Iterator[Row]:
        ids = self.term_ids(pattern)
        if any(v == -1 for v in ids):
            return iter(())
        sid, pid, oid = ids
        records = []
        for start, end in self._sorted_intervals:
            if start >= window.end:
                break
            if end <= window.start:
                continue
            period = Period(start, end)
            for s, p, o in self.graphs[(start, end)]:
                if sid is not None and s != sid:
                    continue
                if pid is not None and p != pid:
                    continue
                if oid is not None and o != oid:
                    continue
                records.append((s, p, o, period))
        return self.rows_from_records(pattern, records, window)

    # ------------------------------------------------------------ reporting

    def graph_count(self) -> int:
        return len(self.graphs)

    def small_graph_fraction(self, limit: int = 5) -> float:
        """Fraction of graphs holding at most ``limit`` triples — the paper
        observes most Wikipedia named graphs have <= 5."""
        if not self.graphs:
            return 0.0
        small = sum(1 for g in self.graphs.values() if len(g) <= limit)
        return small / len(self.graphs)

    def sizeof(self) -> int:
        """Per-graph overhead dominates when graphs are tiny (Fig 8(b))."""
        triples = sum(len(g) for g in self.graphs.values()) * 3 * 8
        overhead = len(self.graphs) * GRAPH_OVERHEAD
        dictionary = self.term_bytes()
        return triples + overhead + dictionary


class Ng4jBaseline(NamedGraphBaseline):
    """The NG4J named-graph implementation (paper Section 7.1.2).

    The paper also tested NG4J but moved its numbers to the technical
    report because it was "much slower than Jena and other approaches".
    The reproduced cause: NG4J's quad API offers no graph-metadata index,
    so a temporal query iterates *every* named graph and inspects its
    interval, instead of sweeping only the graphs intersecting the window
    the way the Jena NG adaptation above does.
    """

    name = "NG4J"

    def match_pattern(self, pattern, window):
        from ..model.time import Period

        ids = self.term_ids(pattern)
        if any(v == -1 for v in ids):
            return iter(())
        sid, pid, oid = ids
        records = []
        # No interval index: every graph is visited and checked.
        for (start, end), triples in self.graphs.items():
            if end <= window.start or start >= window.end:
                continue
            period = Period(start, end)
            for s, p, o in triples:
                if sid is not None and s != sid:
                    continue
                if pid is not None and p != pid:
                    continue
                if oid is not None and o != oid:
                    continue
                records.append((s, p, o, period))
        return self.rows_from_records(pattern, records, window)

    def sizeof(self) -> int:
        """NG4J keeps per-graph quad indexes on top of the graphs."""
        return int(super().sizeof() * 1.3)
