"""Tests for the benchmark harness and the experiment drivers' fast paths."""

import os

import pytest

from repro.bench import harness
from repro.bench.harness import format_table, mb, scaled, time_callable
from repro.bench.sizing import (
    compressed_mvbt_size,
    standard_mvbt_size,
    system_sizes,
)
from repro.datasets import wikipedia
from repro.engine import RDFTX


class TestHarness:
    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert harness.scale() == 2.5
        assert scaled(1000) == 2500

    def test_scaled_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.001")
        assert scaled(1000, minimum=200) == 200

    def test_time_callable_counts(self):
        calls = []
        time_callable(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5

    def test_format_table_alignment(self):
        table = format_table(
            "T", ["a", "bb"], [(1, 2.5), (10, 0.001)]
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:]}) == 1

    def test_format_table_empty(self):
        table = format_table("T", ["x"], [])
        assert "x" in table

    def test_mb(self):
        assert mb(1024 * 1024) == 1.0

    def test_report_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        harness.report("unit", "content")
        assert (tmp_path / "unit.txt").read_text() == "content\n"

    def test_a_scaled_report_leaves_the_full_scale_file(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        (tmp_path / "unit.txt").write_text("full\n")
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        harness.report("unit", "scaled")
        assert (tmp_path / "unit.txt").read_text() == "full\n"
        assert (tmp_path / "unit.scale-0.05.txt").read_text() == "scaled\n"


class TestSizing:
    @pytest.fixture(scope="class")
    def engine(self):
        return RDFTX.from_graph(wikipedia.generate(800, seed=5).graph)

    def test_compressed_smaller_than_standard(self, engine):
        assert compressed_mvbt_size(engine) < standard_mvbt_size(engine)

    def test_compression_ratio_in_paper_band(self, engine):
        ratio = compressed_mvbt_size(engine) / standard_mvbt_size(engine)
        assert 0.1 < ratio < 0.45  # paper: ~0.24

    def test_system_sizes_includes_raw(self, engine):
        graph = wikipedia.generate(800, seed=5).graph
        sizes = system_sizes(graph, engine, [])
        assert sizes["Raw Data"] == graph.raw_size()
        assert sizes["Compressed MVBT"] > 0
