"""Observability: metrics registry and operator-level query profiles.

A lightweight, zero-dependency layer threaded through the engine's hot
paths (MVBT scans, joins, the optimizer's cardinality estimates).  The
environment variable ``REPRO_OBS=0`` turns every probe into a no-op.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ENABLED": ".metrics",
    "EVENTS": ".events",
    "EventLog": ".events",
    "LOGGER": ".log",
    "Logger": ".log",
    "REGISTRY": ".metrics",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "ProfileNode": ".profile",
    "QueryProfile": ".profile",
    "Registry": ".metrics",
    "Sampler": ".trace",
    "Span": ".trace",
    "Trace": ".trace",
    "TraceBuffer": ".trace",
    "counter": ".metrics",
    "enabled": ".metrics",
    "gauge": ".metrics",
    "histogram": ".metrics",
    "set_enabled": ".metrics",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
