"""Parallel pattern scanning must be invisible in results.

The contract of :mod:`repro.engine.parallel` is byte-identical output:
per-leaf pieces are concatenated in visit order and pattern prefetches
are consumed in plan order, so flipping ``parallel`` on must change
nothing but wall-clock.  Verified here over a fig9-style workload
(selection + join + complex suites on a synthetic Wikipedia dataset)
and directly at the scan layer.
"""

import pytest

from repro.datasets import wikipedia
from repro.datasets.queries import (
    complex_queries,
    join_queries,
    selection_queries,
)
from repro.engine import RDFTX
from repro.engine.parallel import (
    _parse_switch,
    parallel_scan_pieces,
)
from repro.model.time import MIN_TIME, NOW
from repro.mvbt import MAX_KEY, MIN_KEY, scan_pieces
from repro.optimizer import Optimizer


@pytest.fixture(scope="module")
def graph():
    return wikipedia.generate(1200, seed=11).graph


@pytest.fixture(scope="module")
def engine(graph):
    return RDFTX.from_graph(graph, optimizer=Optimizer())


@pytest.fixture(scope="module")
def workload(graph):
    by_size = complex_queries(graph, seeds=2, max_patterns=5)
    return (
        selection_queries(graph, count=6)
        + join_queries(graph, count=4)
        + [q for queries in by_size.values() for q in queries]
    )


class TestByteIdenticalResults:
    def test_fig9_suite_parallel_equals_serial(self, engine, workload):
        for text in workload:
            engine.parallel = False
            serial = engine.query(text)
            engine.parallel = True
            parallel = engine.query(text)
            engine.parallel = False
            assert parallel.variables == serial.variables
            assert parallel.rows == serial.rows, text
            # Byte-identical, including row and period ordering.
            assert repr(parallel.rows) == repr(serial.rows), text

    def test_profiling_still_works_in_parallel_mode(self, engine, workload):
        engine.parallel = True
        try:
            result = engine.query(workload[0], profile=True)
        finally:
            engine.parallel = False
        assert result.profile is not None


class TestScanLayer:
    REGIONS = [
        (MIN_KEY, MAX_KEY, MIN_TIME, NOW),
        (MIN_KEY, MAX_KEY, 5, 50),
        ((5,), (900, 0, 0), MIN_TIME, NOW),
        (MIN_KEY, MAX_KEY, NOW, NOW),  # degenerate window
    ]

    def test_parallel_pieces_identical(self, engine):
        for tree in engine.indexes.values():
            for key_low, key_high, t1, t2 in self.REGIONS:
                assert parallel_scan_pieces(
                    tree, key_low, key_high, t1, t2
                ) == scan_pieces(tree, key_low, key_high, t1, t2)

    def test_parallel_counters_advance(self, engine):
        from repro.engine import parallel as par
        from repro.obs import metrics as _metrics

        if not _metrics.ENABLED:
            pytest.skip("REPRO_OBS=0")
        tree = engine.indexes["spo"]
        before = par._PARALLEL_SCANS.value
        parallel_scan_pieces(tree, MIN_KEY, MAX_KEY, MIN_TIME, NOW)
        assert par._PARALLEL_SCANS.value == before + 1


class TestSwitchParsing:
    @pytest.mark.parametrize("raw", [None, "", "0", "false", "off", "no",
                                     "False", " OFF "])
    def test_disabled_values(self, raw):
        assert _parse_switch(raw) == (False, None)

    def test_plain_enable(self):
        assert _parse_switch("1") == (True, None)
        assert _parse_switch("true") == (True, None)
        assert _parse_switch("on") == (True, None)

    def test_integer_sizes_pool(self):
        assert _parse_switch("4") == (True, 4)
        assert _parse_switch("-2") == (False, None)
