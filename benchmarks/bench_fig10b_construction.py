"""Figure 10(b): index construction time vs dataset size.

Paper: approximately linear in the number of triples (with a mild
superlinear tail they attribute to JVM garbage collection).
"""

from repro.bench.experiments import experiment_fig10b
from repro.bench.harness import format_table, report


def test_fig10b_construction_time(figure):
    rows = figure(experiment_fig10b)
    table = format_table(
        "Figure 10(b) — Index Construction Time (4 MVBTs + compression)",
        ["Triples", "Seconds", "us/triple"],
        rows,
    )
    report("fig10b_construction", table)
    # Approximately linear: the write path is logarithmic in the tree, so
    # the per-triple cost grows by a tree level and the GC's share, no more
    # (1.6-1.8x over this 12x sweep; 2.3x with the linear routing scan).
    per_triple = [micros for _, _, micros in rows]
    assert max(per_triple) < 2.1 * min(per_triple)
