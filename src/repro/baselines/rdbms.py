"""RDBMS baseline: the "MySQL memory engine" approach (Sections 4, 7.1.2).

Temporal RDF triples live in one relational table with five columns
``(subject, predicate, object, start, end)``.  Four in-memory B+ tree
indices cover the key orders SPO, SOP, PSO, OPS, and two more index the
start/end timestamps — exactly the schema the paper builds in MySQL.

The measured weakness this reproduces: the key indices know nothing about
time and the time indices know nothing about keys, so *every* temporal
pattern needs an index scan on one dimension followed by residual filtering
(or an intersection of two scans), whereas the MVBT answers the
two-dimensional region in a single operation (Section 7.3's analysis).
"""

from __future__ import annotations

from typing import Iterator

from ..model.graph import TemporalGraph
from ..model.time import Period
from ..sparqlt.ast import QuadPattern
from ..storage.bptree import BPlusTree
from .base import Row, TemporalBaseline


class RDBMSBaseline(TemporalBaseline):
    """In-memory relational table + six B+ tree indices."""

    name = "MySQL"

    def __init__(self, branching: int = 64) -> None:
        super().__init__()
        self._branching = branching
        self.table: list[tuple[int, int, int, int, int]] = []
        self.indexes: dict[str, BPlusTree] = {}
        self.start_index = BPlusTree(branching)
        self.end_index = BPlusTree(branching)

    def _build(self, graph: TemporalGraph) -> None:
        self.indexes = {
            order: BPlusTree(self._branching)
            for order in ("spo", "sop", "pso", "ops")
        }
        for record in graph.encoded_rows():
            row_id = len(self.table)
            self.table.append(record)
            s, p, o, start, end = record
            self.indexes["spo"].insert((s, p, o), row_id)
            self.indexes["sop"].insert((s, o, p), row_id)
            self.indexes["pso"].insert((p, s, o), row_id)
            self.indexes["ops"].insert((o, p, s), row_id)
            self.start_index.insert(start, row_id)
            self.end_index.insert(end, row_id)

    # ------------------------------------------------------------- matching

    def match_pattern(
        self, pattern: QuadPattern, window: Period
    ) -> Iterator[Row]:
        ids = self.term_ids(pattern)
        if any(v == -1 for v in ids):
            return iter(())
        row_ids = self._candidate_rows(ids, window)
        records = []
        for row_id in row_ids:
            s, p, o, start, end = self.table[row_id]
            if not self._matches(ids, s, p, o):
                continue
            period = Period(start, end)
            if period.overlaps(window):
                records.append((s, p, o, period))
        return self.rows_from_records(pattern, records, window)

    def _candidate_rows(self, ids, window: Period):
        """Row ids from the key index whose prefix covers the constants.

        The time dimension always needs residual filtering — this is the
        structural cost the paper measures against the MVBT.
        """
        sid, pid, oid = ids
        if sid is not None and pid is not None and oid is not None:
            scan = self._prefix_scan("spo", (sid, pid, oid))
        elif sid is not None and pid is not None:
            scan = self._prefix_scan("spo", (sid, pid))
        elif sid is not None and oid is not None:
            scan = self._prefix_scan("sop", (sid, oid))
        elif sid is not None:
            scan = self._prefix_scan("spo", (sid,))
        elif pid is not None and oid is not None:
            # PSO cannot serve a PO prefix; OPS can, with (o, p).
            scan = self._prefix_scan("ops", (oid, pid))
        elif pid is not None:
            scan = self._prefix_scan("pso", (pid,))
        elif oid is not None:
            scan = self._prefix_scan("ops", (oid,))
        else:
            # No key constants: use the time index (start < window end).
            return (v for _, v in self.start_index.range(-1, window.end))
        return (v for _, v in scan)

    def _prefix_scan(self, order: str, prefix: tuple):
        return self.indexes[order].range(prefix, prefix + (2**62,))

    @staticmethod
    def _matches(ids, s: int, p: int, o: int) -> bool:
        sid, pid, oid = ids
        return (
            (sid is None or sid == s)
            and (pid is None or pid == p)
            and (oid is None or oid == o)
        )

    # ----------------------------------------------------------------- size

    def sizeof(self) -> int:
        """Storage-layout bytes.

        Table rows are five 8-byte columns; each key index entry holds a
        24-byte composite key plus an 8-byte row pointer; time index entries
        are 8 + 8.  A per-node overhead matching the MVBT accounting keeps
        Figure 8(b) comparable.  The dictionary is included, as in the
        paper's reported sizes.
        """
        n = len(self.table)
        table = n * 5 * 8
        key_indexes = 4 * n * (24 + 8)
        time_indexes = 2 * n * (8 + 8)
        node_overhead = (4 + 2) * (n // 32 + 1) * 64
        # The memory engine stores VARCHAR values inline as well; we charge
        # the string heap once (the dictionary covers decoding).
        strings = self.term_bytes()
        return table + key_indexes + time_indexes + node_overhead + strings
