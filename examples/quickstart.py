"""Quickstart: load a tiny history, ask SPARQLT questions.

Run:  python examples/quickstart.py
"""

from repro import RDFTX, TemporalGraph, date_to_chronon

D = date_to_chronon


def main() -> None:
    # 1. Build a temporal RDF graph: facts with validity intervals.
    graph = TemporalGraph()
    graph.add("UC", "president", "Mark_Yudof", D("2008-06-16"), D("2013-09-30"))
    graph.add("UC", "president", "Janet_Napolitano", D("2013-09-30"))
    graph.add("UC", "budget", "22.7", D("2013-01-30"), D("2015-01-30"))
    graph.add("UC", "budget", "25.46", D("2015-01-30"))

    # 2. Load it into RDF-TX: three compressed MVBT indices + dictionary.
    engine = RDFTX.from_graph(graph)

    # 3. "When" query (paper Example 1): the validity of a fact.
    result = engine.query(
        "SELECT ?t {UC president Janet_Napolitano ?t}"
    )
    print("When was Napolitano president?")
    print(result.to_table())

    # 4. Time travel (paper Example 2): a past version of a value.
    result = engine.query(
        "SELECT ?budget {UC budget ?budget ?t . FILTER(YEAR(?t) = 2013)}"
    )
    print("\nUC budget in 2013:", result.column("budget"))

    # 5. Live updates: the history keeps growing.
    engine.insert("UC", "president", "Michael_Drake", engine.horizon + 1)
    result = engine.query("SELECT ?who ?t {UC president ?who ?t}")
    print("\nFull presidency history:")
    print(result.to_table())


if __name__ == "__main__":
    main()
