"""Size accounting for Figure 8.

All sizes in this repository are **storage-layout bytes**: the bytes a C- or
Java-style implementation of the same layout would allocate (fixed-width
fields, string heaps, measured compressed buffers), *not* Python heap bytes —
Python object headers are an order of magnitude of constant overhead that
would drown every ratio the paper reports.  Each structure documents its
formula next to its ``sizeof``; the compressed MVBT leaf size is the *actual
encoded byte buffer*, so the Figure 8(a) compression ratio is measured, not
modelled.
"""

from __future__ import annotations

from ..engine.engine import RDFTX
from ..model.graph import TemporalGraph
from ..mvbt.tree import MVBT


def standard_mvbt_size(engine: RDFTX) -> int:
    """Total size of the engine's three MVBT indices, uncompressed."""
    total = 0
    for tree in engine.indexes.values():
        total += _tree_size(tree, compressed=False)
    return total


def compressed_mvbt_size(engine: RDFTX) -> int:
    """Total size of the engine's three MVBT indices as stored (compressed
    leaves keep their encoded buffers)."""
    return sum(tree.sizeof() for tree in engine.indexes.values())


def _tree_size(tree: MVBT, compressed: bool) -> int:
    from ..mvbt.compression import NODE_HEADER_BYTES, STANDARD_ENTRY_BYTES

    total = 0
    for node in tree.iter_nodes():
        if compressed:
            total += node.sizeof()
        else:
            total += NODE_HEADER_BYTES + STANDARD_ENTRY_BYTES * node.count
    return total


def system_sizes(graph: TemporalGraph, engine: RDFTX, baselines) -> dict:
    """Figure 8(b): index size per system, plus the raw data size."""
    sizes = {"Raw Data": graph.raw_size()}
    for baseline in baselines:
        sizes[baseline.name] = baseline.sizeof()
    sizes["Compressed MVBT"] = engine.sizeof()
    return sizes
