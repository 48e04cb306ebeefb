"""Workload intelligence: query fingerprints and per-shape aggregates.

Fingerprinting turns a parsed SPARQLT query into a *shape*: constants
collapse to placeholders and variables are renamed in first-occurrence
order, so ``SELECT ?o {UC president ?o ?t}`` and
``SELECT ?x {UM chancellor ?x ?u}`` aggregate together while queries
with genuinely different variable structure (e.g. a repeated variable)
stay apart.  :class:`WorkloadRegistry` keeps bounded per-shape
aggregates — count, latency histogram, rows, result-cache hit ratio,
and the exemplar ``trace_id`` of the slowest traced instance — behind
``GET /debug/workload`` and ``repro-tx stats --workload``.

Everything gates on the ``REPRO_OBS`` kill switch: with observability
off, recording is a no-op.  ``hashlib`` (which maps libcrypto) is
imported where it is used, so a process that never records skips it.
"""

from __future__ import annotations

import threading

from ..cache import LRUCache
from . import metrics as _metrics
from .metrics import Histogram

_RECORDS = _metrics.counter("obs.workload.records")
_OVERFLOW = _metrics.counter("obs.workload.overflow")
_SHAPES_GAUGE = _metrics.gauge("obs.workload.shapes")

#: Distinct shapes tracked before new ones fold into the overflow bucket.
MAX_SHAPES = 512

#: Normalized-text -> fingerprint cache entries (skips re-fingerprinting
#: hot query texts, including the store's cache-hit path).
TEXT_CACHE_CAPACITY = 2048

#: Longest raw query text kept as a shape's example.
EXAMPLE_LIMIT = 200


# ------------------------------------------------------------- fingerprints


def fingerprint(query) -> tuple[str, str]:
    """Canonical (shape_id, shape_text) of a parsed SPARQLT query.

    Variables are renamed ``?v0, ?v1, ...`` in first-occurrence order
    (patterns, then filters, then unions/optionals, then the select
    list); term/time constants become ``<c>``/``<t>`` and filter
    literals ``<kind>`` placeholders.  Structure — pattern positions,
    filter operators and function names, group algebra, projection —
    is preserved, so two queries share a shape exactly when they differ
    only in constants, variable names, or whitespace.
    """
    import hashlib

    from ..sparqlt.ast import (
        And, Compare, FuncCall, Literal, Not, Or, TermConst, TimeConst, Var,
    )

    names: dict[str, str] = {}

    def var(name: str) -> str:
        if name not in names:
            names[name] = f"?v{len(names)}"
        return names[name]

    def term(node) -> str:
        if isinstance(node, Var):
            return var(node.name)
        if isinstance(node, TermConst):
            return "<c>"
        if isinstance(node, TimeConst):
            return "<t>"
        return "<?>"

    def expr(node) -> str:
        if isinstance(node, Var):
            return var(node.name)
        if isinstance(node, Literal):
            return f"<{node.kind}>"
        if isinstance(node, FuncCall):
            return f"{node.name}({expr(node.arg)})"
        if isinstance(node, Compare):
            return f"({expr(node.left)} {node.op} {expr(node.right)})"
        if isinstance(node, And):
            return f"({expr(node.left)} && {expr(node.right)})"
        if isinstance(node, Or):
            return f"({expr(node.left)} || {expr(node.right)})"
        if isinstance(node, Not):
            return f"!({expr(node.operand)})"
        return "<?>"

    def group(node) -> str:
        parts = [
            " ".join(
                term(t)
                for t in (p.subject, p.predicate, p.object, p.time)
            )
            for p in node.patterns
        ]
        parts.extend(f"FILTER {expr(f)}" for f in node.filters)
        parts.extend(
            "UNION(" + " | ".join(group(b) for b in union) + ")"
            for union in node.unions
        )
        parts.extend(
            "OPTIONAL(" + group(opt) + ")" for opt in node.optionals
        )
        return " . ".join(parts)

    body = group(query.group)
    select = " ".join(var(name) for name in query.select)
    shape = f"SELECT {select} {{ {body} }}"
    shape_id = hashlib.sha1(shape.encode("utf-8")).hexdigest()[:12]
    return shape_id, shape


def fingerprint_text(text: str) -> tuple[str, str]:
    """Parse ``text`` and fingerprint it (see :func:`fingerprint`)."""
    from ..sparqlt.parser import parse

    return fingerprint(parse(text))


# ---------------------------------------------------------- shape registry


class ShapeStats:
    """Aggregates for one query shape (thread-safe)."""

    __slots__ = ("shape_id", "shape", "example", "count", "rows", "hits",
                 "latency", "slowest_ms", "exemplar_trace_id", "exemplar_ms",
                 "_lock")

    def __init__(self, shape_id: str, shape: str,
                 example: str | None = None) -> None:
        self.shape_id = shape_id
        self.shape = shape
        self.example = example
        self.count = 0
        self.rows = 0
        self.hits = 0
        self.latency = Histogram(shape_id)
        self.slowest_ms = 0.0
        #: trace id of the slowest *traced* instance (untraced requests
        #: may be slower; the exemplar must be resolvable).
        self.exemplar_trace_id: str | None = None
        self.exemplar_ms = 0.0
        self._lock = threading.Lock()

    def record(self, duration_ms: float, rows: int, cache_hit: bool,
               trace_id: str | None) -> None:
        with self._lock:
            self.count += 1
            self.rows += rows
            if cache_hit:
                self.hits += 1
            if duration_ms > self.slowest_ms:
                self.slowest_ms = duration_ms
            if trace_id is not None and duration_ms >= self.exemplar_ms:
                self.exemplar_ms = duration_ms
                self.exemplar_trace_id = trace_id
        self.latency.observe(duration_ms)

    def as_dict(self) -> dict:
        with self._lock:
            count = self.count
            rows = self.rows
            hits = self.hits
            slowest_ms = self.slowest_ms
            exemplar = self.exemplar_trace_id
            exemplar_ms = self.exemplar_ms
        return {
            "shape_id": self.shape_id,
            "shape": self.shape,
            "example": self.example,
            "count": count,
            "rows_mean": rows / count if count else 0.0,
            "cache_hit_ratio": hits / count if count else 0.0,
            "p50_ms": round(self.latency.quantile(0.50), 4),
            "p95_ms": round(self.latency.quantile(0.95), 4),
            "p99_ms": round(self.latency.quantile(0.99), 4),
            "slowest_ms": round(slowest_ms, 4),
            "exemplar_trace_id": exemplar,
            "exemplar_ms": round(exemplar_ms, 4),
        }


class WorkloadRegistry:
    """Bounded shape_id -> :class:`ShapeStats` registry.

    Once ``max_shapes`` distinct shapes exist, further novel shapes fold
    into a single overflow bucket — memory stays bounded under
    adversarial workloads (e.g. 10k distinct generated shapes) while the
    dominant shapes keep aggregating accurately.
    """

    def __init__(self, max_shapes: int = MAX_SHAPES,
                 text_cache: int = TEXT_CACHE_CAPACITY) -> None:
        self.max_shapes = max_shapes
        self._lock = threading.Lock()
        self._shapes: dict[str, ShapeStats] = {}
        self._texts: LRUCache = LRUCache(text_cache)
        self._overflow = ShapeStats(
            "(overflow)", "(folded: shape registry full)"
        )

    def __len__(self) -> int:
        return len(self._shapes)

    def _resolve(self, query, text: str | None) -> tuple[str, str]:
        """Fingerprint via the text cache when possible."""
        key = None
        if text is not None:
            key = " ".join(text.split())
            found = self._texts.get(key)
            if found is not None:
                return found
        pair = fingerprint(query) if query is not None \
            else fingerprint_text(text)
        if key is not None:
            self._texts.put(key, pair)
        return pair

    def record_query(self, query, text: str | None, duration_ms: float,
                     rows: int, cache_hit: bool,
                     trace_id: str | None = None) -> None:
        """Fold one executed query into its shape's aggregates.

        ``query`` is the parsed AST (may be None when only ``text`` is
        known — the store's cache-hit path); ``text`` the raw source
        (may be None for pre-parsed convenience-API queries).
        """
        if not _metrics.ENABLED:
            return
        shape_id, shape = self._resolve(query, text)
        stats = self._record(shape_id, shape, text)
        stats.record(duration_ms, rows, cache_hit, trace_id)
        _RECORDS.inc()

    def _record(self, shape_id: str, shape: str,
                text: str | None = None) -> ShapeStats:
        """Get-or-create the shape's stats, bounded by ``max_shapes``."""
        stats = self._shapes.get(shape_id)
        if stats is not None:
            return stats
        with self._lock:
            stats = self._shapes.get(shape_id)
            if stats is None:
                if len(self._shapes) >= self.max_shapes:
                    _OVERFLOW.inc()
                    return self._overflow
                example = text[:EXAMPLE_LIMIT] if text else None
                stats = ShapeStats(shape_id, shape, example=example)
                self._shapes[shape_id] = stats
                _SHAPES_GAUGE.set(len(self._shapes))
        return stats

    def snapshot(self, limit: int | None = None) -> dict:
        """The registry as one JSON-able dict, busiest shapes first."""
        with self._lock:
            shapes = list(self._shapes.values())
        shapes.sort(key=lambda s: s.count, reverse=True)
        if limit is not None:
            shapes = shapes[:limit]
        return {
            "distinct_shapes": len(self._shapes),
            "records": sum(s.count for s in shapes),
            "overflow": self._overflow.count,
            "shapes": [s.as_dict() for s in shapes],
        }

    def render_text(self, limit: int = 20) -> str:
        """Aligned per-shape table for ``repro-tx stats --workload``."""
        snap = self.snapshot(limit=limit)
        if not snap["shapes"]:
            return "(no queries recorded)"
        header = ["count", "p50_ms", "p95_ms", "hit%", "rows", "trace",
                  "shape"]
        rows = []
        for s in snap["shapes"]:
            rows.append([
                str(s["count"]),
                f"{s['p50_ms']:.2f}",
                f"{s['p95_ms']:.2f}",
                f"{100.0 * s['cache_hit_ratio']:.0f}",
                f"{s['rows_mean']:.1f}",
                s["exemplar_trace_id"] or "-",
                s["shape"][:60],
            ])
        widths = [
            max(len(header[i]), max(len(r[i]) for r in rows))
            for i in range(len(header) - 1)
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths))
            + "  " + header[-1],
            "  ".join("-" * w for w in widths) + "  " + "-" * 5,
        ]
        for r in rows:
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(r, widths))
                + "  " + r[-1]
            )
        lines.append(
            f"({snap['distinct_shapes']} shape(s), "
            f"{snap['overflow']} overflow record(s))"
        )
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._shapes.clear()
            self._texts.clear()
            self._overflow = ShapeStats(
                "(overflow)", "(folded: shape registry full)"
            )
        _SHAPES_GAUGE.set(0)


#: The process-global workload registry the engine and store report into.
WORKLOAD = WorkloadRegistry()

