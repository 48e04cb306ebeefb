"""Figure 8: index space.

(a) Delta compression shrinks the MVBT to ~24% of the standard layout
    (76% saving) across dataset sizes.
(b) Across systems on Wikipedia: Jena NG far above everything (tiny named
    graphs), MySQL and Jena Reification at 3-4x raw, RDF-TX (the paper's
    4 compressed MVBTs + dictionary; 3 MVBTs here, DESIGN.md §6 item 7)
    around 1.8x raw and comparable to RDF-3X/Virtuoso.
"""

from repro.bench.experiments import experiment_fig8a, experiment_fig8b
from repro.bench.harness import format_table, mb, report


def test_fig8a_compression_saving(figure):
    rows = figure(experiment_fig8a)
    table = format_table(
        "Figure 8(a) — MVBT Size: standard vs compressed "
        "(paper ratio: ~0.24)",
        ["Triples", "Standard (MB)", "Compressed (MB)", "Ratio"],
        [(n, round(mb(s), 2), round(mb(c), 2), r) for n, s, c, r in rows],
    )
    report("fig8a_compression_saving", table)
    for _, standard, compressed, ratio in rows:
        assert compressed < standard
        # Paper: ~76% saving; accept the same band.
        assert 0.1 < ratio < 0.45


def test_fig8b_index_size_comparison(figure):
    result, n = figure(experiment_fig8b)
    table = format_table(
        f"Figure 8(b) — Index Size Comparison (N={n}; ratios vs raw)",
        ["System", "Bytes", "x Raw"],
        result,
    )
    report("fig8b_index_size_comparison", table)
    sizes = {name: ratio for name, _, ratio in result}
    # Shape assertions from the paper's Figure 8(b).
    assert sizes["Jena NG"] > 2 * sizes["MySQL"]
    assert sizes["MySQL"] > sizes["Compressed MVBT"]
    assert sizes["Jena Ref"] > sizes["Compressed MVBT"]
    assert sizes["Compressed MVBT"] < 4.0
