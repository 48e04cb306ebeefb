"""I/O: the temporal N-Quads interchange format."""

from .ntq import (
    FormatError,
    dump_graph,
    dumps,
    iter_triples,
    load_graph,
    loads,
)

__all__ = [
    "FormatError",
    "dump_graph",
    "dumps",
    "iter_triples",
    "load_graph",
    "loads",
]
