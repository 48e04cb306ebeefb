"""Complex temporal joins with the query optimizer on GovTrack-like data.

Builds a legislative-history dataset (few predicates, coarse timestamps —
the regime where join order matters most), attaches the cost-based
optimizer, and shows plans and timings for a multi-join SPARQLT query with
and without optimization (the Figure 10(a) story in miniature).

Run:  python examples/govtrack_optimizer.py
"""

import time

from repro import Optimizer, RDFTX
from repro.datasets import govtrack


def main() -> None:
    dataset = govtrack.generate(8000, seed=7, n_periods=160)
    graph = dataset.graph
    print(f"Loaded {len(graph)} historical records")

    optimized = RDFTX.from_graph(
        graph, optimizer=Optimizer(cm=8, lm=8, budget_fraction=0.5)
    )
    unoptimized = RDFTX.from_graph(graph)

    # A star join over a congressman's event history, time-anchored.
    query = (
        "SELECT ?who ?party ?committee ?vote "
        "{?who cm_party ?party ?t . "
        " ?who cm_committee ?committee ?t . "
        " ?who cm_vote_yes ?vote ?t . "
        " ?who cm_term ?term ?t }"
    )

    print("\nOptimized plan:")
    print(optimized.explain(query))
    print("\nHeuristic plan:")
    print(unoptimized.explain(query))

    for name, engine in (("optimized", optimized), ("heuristic", unoptimized)):
        engine.query(query)  # warm
        start = time.perf_counter()
        result = engine.query(query)
        elapsed = (time.perf_counter() - start) * 1000
        print(f"\n{name}: {len(result)} rows in {elapsed:.1f} ms")

    # The optimizer's statistics at work: estimated vs actual cardinality.
    stats = optimized.optimizer.statistics
    plan_graph, _ = optimized.plan_graph(query)
    print("\nPattern cardinality estimates:")
    for plan in plan_graph.patterns:
        estimate = stats.pattern_cardinality(plan)
        actual = len(optimized.query(
            f"SELECT ?who ?v {{?who {plan.pattern.predicate} ?v ?t}}"
        ))
        print(f"  {str(plan.pattern):60s} est={estimate:8.1f} actual={actual}")


if __name__ == "__main__":
    main()
