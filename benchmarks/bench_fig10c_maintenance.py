"""Figure 10(c): index maintenance time, standard vs compressed MVBT.

Paper: replaying a 68% insert / 32% delete update stream, updates on the
compressed index cost only ~5% more than on the standard index — negligible
against the 76% space saving.  The table also carries both indexes' sizes
before and after the stream: version splits on the compressed index
create their leaves packed and updates edit the packed pages, so the
saving Figure 8 reports survives maintenance.
"""

from repro.bench.experiments import experiment_fig10c
from repro.bench.harness import format_table, report


def test_fig10c_maintenance_time(figure):
    rows, n = figure(experiment_fig10c)
    table = format_table(
        f"Figure 10(c) — Maintenance time per update (N={n}; "
        "paper overhead: ~+5%)",
        ["Index", "Updates", "ms/update", "KB before", "KB after"],
        rows,
    )
    report("fig10c_maintenance", table)
    standard = rows[0][2]
    compressed = rows[1][2]
    # Small overhead: compressed updates stay within 2x of standard (the
    # paper measures +5% in Java; Python's re-encode path costs more but
    # must stay the same order of magnitude).
    assert compressed < standard * 2.0
    # The update stream must not undo Figure 8: the compressed index is
    # still a fraction of the standard one after it.
    assert rows[2][4] < 0.5
