"""Smoke tests for the benchmark experiment drivers at miniature scale.

These keep the per-figure drivers from rotting between benchmark runs; the
real shape assertions live in ``benchmarks/``.
"""

import pytest

from repro.bench import experiments


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.01")  # floors at 200 triples


def test_table1_driver():
    rows = experiments.experiment_table1()
    assert len(rows) == 4
    assert all(len(row) == 4 for row in rows)


def test_fig3b_driver():
    rows = experiments.experiment_fig3b()
    assert len(rows) == 5
    assert all(seconds >= 0 for _, seconds in rows)


def test_fig8a_driver():
    rows = experiments.experiment_fig8a()
    for _, standard, compressed, ratio in rows:
        assert 0 < compressed < standard
        assert 0 < ratio < 1


def test_fig8b_driver():
    result, n = experiments.experiment_fig8b()
    names = {name for name, _, _ in result}
    assert {"Raw Data", "Compressed MVBT", "MySQL", "Jena NG"} <= names


def test_fig9_sweep_driver():
    header, rows = experiments.experiment_fig9_sweep(
        "wikipedia", "selection", repeats=1
    )
    assert header[0] == "N"
    assert "RDF-TX" in header
    assert len(rows) == 4


def test_fig9_complex_driver():
    header, rows, n = experiments.experiment_fig9_complex(
        "govtrack", repeats=1
    )
    assert [row[0] for row in rows] == [3, 4, 5, 6, 7]


def test_fig10b_driver():
    rows = experiments.experiment_fig10b()
    assert len(rows) == 5


def test_fig10c_driver():
    rows, n = experiments.experiment_fig10c()
    assert rows[0][0] == "Standard MVBT"
    assert rows[1][0] == "Compressed MVBT"
    # Sizes before/after the stream: maintenance keeps the index compressed.
    assert rows[1][3] < rows[0][3] and rows[1][4] < rows[0][4]
    assert rows[2][4] < 0.6


def test_sec74_driver():
    result = experiments.experiment_sec74()
    assert 0 < result["fraction"] < 1
    assert result["optimize_ms_min"] <= result["optimize_ms_max"]
