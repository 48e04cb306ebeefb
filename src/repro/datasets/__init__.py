"""Synthetic dataset and query-workload generators (paper Section 7.1)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "GovTrackDataset": ".govtrack",
    "WikipediaDataset": ".wikipedia",
    "YagoDataset": ".yago",
    "complex_queries": ".queries",
    "govtrack": ".govtrack",
    "join_queries": ".queries",
    "queries": ".queries",
    "selection_queries": ".queries",
    "table1_statistics": ".wikipedia",
    "wikipedia": ".wikipedia",
    "yago": ".yago",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
