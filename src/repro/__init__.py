"""repro — a reproduction of RDF-TX (EDBT 2016).

RDF-TX is a fast, user-friendly system for querying the history of RDF
knowledge bases: SPARQLT (a point-based temporal extension of SPARQL), an
in-memory query engine over compressed Multiversion B+ Trees, and a query
optimizer driven by temporal characteristic-set statistics.

Quickstart::

    from repro import RDFTX, TemporalGraph, date_to_chronon

    graph = TemporalGraph()
    graph.add("UC", "president", "Mark_Yudof",
              date_to_chronon("2008-06-16"), date_to_chronon("2013-09-30"))
    graph.add("UC", "president", "Janet_Napolitano",
              date_to_chronon("2013-09-30"))

    engine = RDFTX.from_graph(graph)
    result = engine.query("SELECT ?t {UC president Janet_Napolitano ?t}")
    print(result.to_table())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "MVBT": ".mvbt",
    "MVBTConfig": ".mvbt",
    "NOW": ".model",
    "Optimizer": ".optimizer",
    "Period": ".model",
    "PeriodSet": ".model",
    "QueryResult": ".engine",
    "RDFTX": ".engine",
    "SparqltError": ".sparqlt",
    "TemporalGraph": ".model",
    "TemporalTriple": ".model",
    "Triple": ".model",
    "date_to_chronon": ".model",
    "format_chronon": ".model",
    "parse": ".sparqlt",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
