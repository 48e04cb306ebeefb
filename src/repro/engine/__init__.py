"""RDF-TX query engine: pattern translation, plans, operators, execution."""

from .engine import QueryResult, RDFTX
from .executor import default_order, execute
from .patterns import (
    INDEX_ORDERS,
    PatternPlan,
    UnknownTermError,
    decode_key_to_spo,
    translate_pattern,
)
from .plan import CompiledPlan, PlanGraph

__all__ = [
    "CompiledPlan",
    "INDEX_ORDERS",
    "PatternPlan",
    "PlanGraph",
    "QueryResult",
    "RDFTX",
    "UnknownTermError",
    "decode_key_to_spo",
    "default_order",
    "execute",
    "translate_pattern",
]
