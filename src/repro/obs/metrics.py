"""Process-wide metrics registry: counters, gauges, histograms.

Zero-dependency observability for the engine's hot paths.  Metrics are
named, thread-safe, and live in a process-global :data:`REGISTRY` by
default.  A name must be declared in :mod:`repro.obs.catalog` under its
kind: registering any other name raises :class:`KeyError`, and since
every registration runs at module level, a typo fails at import.
:meth:`Registry.snapshot` / :meth:`Registry.reset` and the
text/JSON/Prometheus renderers back the ``repro-tx stats`` subcommand,
the ``/metrics`` endpoint, and the benchmark harness's profile
artifacts.

:class:`Histogram` records latencies into fixed log-spaced buckets so
p50/p95/p99 are derivable from the bucket counts alone (no per-sample
storage) and standard Prometheus scrapers can consume the cumulative
``_bucket``/``_sum``/``_count`` rendering.

Kill switch: setting the environment variable ``REPRO_OBS=0`` (before
import) disables all instrumentation — counter increments, histogram
observations, and query profiling become no-ops, so benchmark timings are
unaffected.  Call sites in hot loops additionally gate on
:data:`ENABLED` so the disabled path costs a single attribute check per
operation batch, never per row.  Tests and tools can flip the switch at
runtime with :func:`set_enabled`.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
from typing import Iterable

from . import catalog as _catalog


def _env_enabled() -> bool:
    """Read the ``REPRO_OBS`` kill switch from the environment."""
    raw = os.environ.get("REPRO_OBS", "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


#: Global instrumentation switch (``REPRO_OBS`` env, default on).
ENABLED = _env_enabled()


def enabled() -> bool:
    """Whether instrumentation is currently on."""
    return ENABLED


def set_enabled(flag: bool) -> bool:
    """Flip the kill switch at runtime; returns the previous state."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(flag)
    return previous


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if not ENABLED:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A named value that can go up and down (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if not ENABLED:
            return
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


#: The bucket upper bounds in **milliseconds** every histogram uses — a
#: 1-2-5 log-spaced ladder from 50µs to 10s.  Observations above the last
#: bound land in the implicit +Inf overflow bucket.
DEFAULT_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


class Histogram:
    """Fixed-bucket latency histogram (milliseconds) on the one ladder,
    :data:`DEFAULT_BUCKETS_MS`.

    Cumulative-on-read: each observation increments exactly one bucket
    counter, quantiles are interpolated from the bucket boundaries when
    asked.  With log-spaced buckets the interpolation error is bounded by
    the bucket ratio (2-2.5x here), which is what fleet-wide p95/p99
    dashboards tolerate by convention.
    """

    __slots__ = ("name", "_counts", "_overflow", "_sum", "_count", "_lock")

    bounds = DEFAULT_BUCKETS_MS

    def __init__(self, name: str) -> None:
        self.name = name
        self._counts = [0] * len(self.bounds)
        self._overflow = 0
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value_ms: float) -> None:
        """Record one observation (milliseconds)."""
        if not ENABLED:
            return
        index = bisect.bisect_left(self.bounds, value_ms)
        with self._lock:
            if index < len(self.bounds):
                self._counts[index] += 1
            else:
                self._overflow += 1
            self._sum += value_ms
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum_ms(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Interpolated quantile in milliseconds (0 <= q <= 1).

        Walks the cumulative bucket counts to the target rank and
        interpolates linearly inside the containing bucket; ranks landing
        in the overflow bucket report the largest finite bound (the
        histogram cannot resolve beyond it).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        lower = 0.0
        for bound, bucket in zip(self.bounds, counts):
            if cumulative + bucket >= rank:
                if bucket == 0:
                    return bound
                fraction = (rank - cumulative) / bucket
                return lower + (bound - lower) * fraction
            cumulative += bucket
            lower = bound
        return self.bounds[-1]

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self.bounds)
            self._overflow = 0
            self._sum = 0.0
            self._count = 0

    def as_dict(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            overflow = self._overflow
            total = self._count
            sum_ms = self._sum
        cumulative = 0
        buckets = []
        for bound, bucket in zip(self.bounds, counts):
            cumulative += bucket
            buckets.append([bound, cumulative])
        return {
            "count": total,
            "sum_ms": sum_ms,
            "overflow": overflow,
            "p50_ms": self.quantile(0.50),
            "p95_ms": self.quantile(0.95),
            "p99_ms": self.quantile(0.99),
            "buckets": buckets,
        }


class Registry:
    """A named collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------- factories

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            _catalog.require(name, _catalog.COUNTERS, "counter")
            with self._lock:
                found = self._counters.setdefault(name, Counter(name))
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            _catalog.require(name, _catalog.GAUGES, "gauge")
            with self._lock:
                found = self._gauges.setdefault(name, Gauge(name))
        return found

    def histogram(self, name: str) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            _catalog.require(name, _catalog.HISTOGRAMS, "histogram")
            with self._lock:
                found = self._histograms.setdefault(name, Histogram(name))
        return found

    # ------------------------------------------------------------ inspection

    def counter_values(self, names: Iterable[str]) -> dict[str, int]:
        """Current values of the named counters (created when missing)."""
        return {name: self.counter(name).value for name in names}

    def snapshot(self) -> dict:
        """One nested dict of every metric's current state."""
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.value for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: h.as_dict()
                    for name, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Zero every metric, keeping the registered objects alive so
        module-level references stay valid."""
        with self._lock:
            metrics = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for metric in metrics:
            metric.reset()

    # ------------------------------------------------------------- rendering

    def render_text(self) -> str:
        """Aligned text rendering of the whole registry."""
        snap = self.snapshot()
        lines: list[str] = []
        if snap["counters"]:
            lines.append("counters:")
            width = max(len(n) for n in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"  {name.ljust(width)}  {value}")
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(n) for n in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"  {name.ljust(width)}  {value:g}")
        if snap["histograms"]:
            lines.append("histograms:")
            width = max(len(n) for n in snap["histograms"])
            for name, hist in snap["histograms"].items():
                lines.append(
                    f"  {name.ljust(width)}  count={hist['count']}"
                    f" p50={hist['p50_ms']:.3f}ms"
                    f" p95={hist['p95_ms']:.3f}ms"
                    f" p99={hist['p99_ms']:.3f}ms"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def render_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the registry: one unlabeled group
        (:func:`prometheus_lines`).

        Every cataloged metric (:mod:`repro.obs.catalog`) is rendered —
        zero-valued when nothing has registered it yet; nothing else can
        be registered — so the scrape surface is identical across
        restarts, and every series carries its ``# HELP`` contract.
        """
        snap = self.snapshot()
        empty = Histogram("").as_dict()
        filled = {
            "counters": {name: snap["counters"].get(name, 0)
                         for name in _catalog.COUNTERS},
            "gauges": {name: snap["gauges"].get(name, 0)
                       for name in _catalog.GAUGES},
            "histograms": {name: snap["histograms"].get(name, empty)
                           for name in _catalog.HISTOGRAMS},
        }
        return "\n".join(prometheus_lines([({}, filled)])) + "\n"


#: Canonical label emission order; any other labels follow, sorted.
_LABEL_ORDER = ("shard", "role")


def _format_labels(labels: dict[str, str], extra: str = "") -> str:
    """``{shard="0",role="shard"}`` with deterministic key order; empty
    for no labels."""
    parts = [
        f'{key}="{labels[key]}"' for key in _LABEL_ORDER if key in labels
    ]
    parts.extend(
        f'{key}="{value}"'
        for key, value in sorted(labels.items())
        if key not in _LABEL_ORDER
    )
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_lines(
    groups: Iterable[tuple[dict[str, str], dict]],
) -> list[str]:
    """Prometheus text exposition (version 0.0.4) of labeled snapshots.

    ``groups`` pairs a label set with a :meth:`Registry.snapshot`-shaped
    dict.  Names are prefixed ``repro_`` with dots mapped to underscores;
    counters gain the conventional ``_total`` suffix, histograms render
    as classic cumulative ``_bucket{le=...}`` series plus
    ``_sum``/``_count``.  Families come by kind (counters, gauges,
    histograms), sorted by name; each lists the groups that carry it, in
    the given order, with their labels.
    """
    groups = list(groups)
    lines: list[str] = []
    for kind, prom_kind, spec in (("counters", "counter", ""),
                                  ("gauges", "gauge", "g"),
                                  ("histograms", "histogram", None)):
        names = {name for _, snap in groups for name in snap.get(kind) or {}}
        for name in sorted(names):
            base = "repro_" + name.replace(".", "_")
            family = base + "_total" if kind == "counters" else base
            text = _catalog.help_for(name)
            if text:
                lines.append(f"# HELP {family} {text}")
            lines.append(f"# TYPE {family} {prom_kind}")
            for labels, snap in groups:
                value = (snap.get(kind) or {}).get(name)
                if value is None:
                    continue
                if spec is not None:
                    lines.append(
                        f"{family}{_format_labels(labels)} {value:{spec}}"
                    )
                    continue
                for bound, cumulative in value["buckets"]:
                    le = _format_labels(labels, 'le="%g"' % bound)
                    lines.append(f"{base}_bucket{le} {cumulative}")
                le = _format_labels(labels, 'le="+Inf"')
                lines.append(f"{base}_bucket{le} {value['count']}")
                rendered = _format_labels(labels)
                lines.append(f"{base}_sum{rendered} {value['sum_ms']:.9g}")
                lines.append(f"{base}_count{rendered} {value['count']}")
    return lines


#: The process-global default registry every subsystem reports into.
REGISTRY = Registry()


def counter(name: str) -> Counter:
    """``REGISTRY.counter`` shorthand."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """``REGISTRY.gauge`` shorthand."""
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """``REGISTRY.histogram`` shorthand."""
    return REGISTRY.histogram(name)
