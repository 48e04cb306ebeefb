"""Live updates on a loaded engine: visibility, caches, statistics.

The paper's engine is bulk-loaded once; these tests pin down the behaviour
of the update path the serving layer depends on — updates must be visible
through every index order immediately, compiled-plan caches must not serve
stale plans, and optimizer statistics track their own staleness.
"""

import threading

import pytest

from repro.engine import RDFTX
from repro.engine import engine as engine_module
from repro.model import NOW, Period, PeriodSet, TemporalGraph, date_to_chronon
from repro.mvbt.tree import DuplicateKeyError, MVBTConfig, TimeOrderError
from repro.optimizer import Optimizer

D = date_to_chronon

# One query per index order choice: the access path is forced by which
# positions are bound (see repro.engine.patterns).
ORDER_PROBES = {
    "spo": "SELECT ?t {Org leader Alice ?t}",       # S,P,O bound
    "sop": "SELECT ?p {Org ?p Alice ?t}",           # S,O bound: SPO (s)
    "pos": "SELECT ?s {?s leader Alice ?t}",        # P,O bound
    "ops": "SELECT ?s ?p {?s ?p Alice ?t}",         # O bound
}


def small_graph():
    g = TemporalGraph()
    g.add("Org", "founded", "1868", D("01/01/2000"))
    g.add("Org", "leader", "Bob", D("01/01/2001"), D("01/01/2010"))
    g.add("Other", "leader", "Carol", D("01/01/2005"))
    return g


@pytest.fixture()
def engine():
    return RDFTX.from_graph(
        small_graph(),
        config=MVBTConfig(block_capacity=8, weak_min=2, epsilon=1),
        optimizer=Optimizer(),
    )


class TestVisibilityAcrossOrders:
    @pytest.mark.parametrize("order", sorted(ORDER_PROBES))
    def test_insert_visible_through_each_order(self, engine, order):
        # Every probe constrains the pattern to the Alice fact, so rows
        # appear exactly when the insert is visible via that access path.
        probe = ORDER_PROBES[order]
        assert engine.query(probe).rows == []  # Alice not known yet
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        after = engine.query(probe)
        assert len(after.rows) == 1
        expected = {"s": "Org", "p": "leader", "o": "Alice"}
        for name, value in after.rows[0].items():
            if name in expected:
                assert value == expected[name]

    @pytest.mark.parametrize("order", sorted(ORDER_PROBES))
    def test_delete_ends_period_through_each_order(self, engine, order):
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        engine.delete("Org", "leader", "Alice", D("01/01/2018"))
        probe = ORDER_PROBES[order]
        # The fact still matches historically...
        assert len(engine.query(probe).rows) == 1
        # ...but not in a window after the delete.
        result = engine.query(
            probe[:-1] + " . FILTER(YEAR(?t) = 2020)}"
        )
        assert result.rows == []

    def test_full_cycle_period(self, engine):
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        result = engine.query("SELECT ?t {Org leader Alice ?t}")
        (row,) = result
        assert row["t"] == PeriodSet([Period(D("01/01/2015"), NOW)])
        engine.delete("Org", "leader", "Alice", D("01/01/2018"))
        result = engine.query("SELECT ?t {Org leader Alice ?t}")
        (row,) = result
        assert row["t"] == PeriodSet(
            [Period(D("01/01/2015"), D("01/01/2018"))]
        )

    def test_reinsert_after_delete(self, engine):
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        engine.delete("Org", "leader", "Alice", D("01/01/2018"))
        engine.insert("Org", "leader", "Alice", D("01/01/2020"))
        result = engine.query("SELECT ?t {Org leader Alice ?t}")
        (row,) = result
        assert row["t"] == PeriodSet([
            Period(D("01/01/2015"), D("01/01/2018")),
            Period(D("01/01/2020"), NOW),
        ])


class TestPlanCacheInvalidation:
    def test_repeat_query_sees_update(self, engine):
        probe = "SELECT ?o {Org leader ?o ?t}"
        first = engine.query(probe)  # populates the plan cache
        assert "Alice" not in first.column("o")
        assert probe in engine._plan_cache
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        # Plans survive writes (dictionary ids are append-only and the
        # time windows live in the query text); the cached plan's scans
        # read the updated indices directly.
        assert probe in engine._plan_cache
        assert "Alice" in engine.query(probe).column("o")

    def test_statistics_refresh_drops_cached_plans(self, engine):
        probe = "SELECT ?o {Org leader ?o ?t}"
        engine.query(probe)
        assert probe in engine._plan_cache
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        engine.refresh_statistics()
        # A rebuild may change the chosen join order, so plans go.
        assert probe not in engine._plan_cache

    def test_new_term_usable_after_insert(self, engine):
        # "Alice" is not in the dictionary before the insert; a cached
        # plan compiled earlier must not pin the term's absence either.
        probe = "SELECT ?t {Org leader Alice ?t}"
        assert engine.query(probe).rows == []
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        assert len(engine.query(probe).rows) == 1


class TestStatisticsStaleness:
    def test_dirty_counter_tracks_updates(self, engine):
        assert engine.statistics_dirty == 0
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        engine.delete("Org", "leader", "Alice", D("01/01/2016"))
        assert engine.statistics_dirty == 2

    def test_manual_refresh_resets_and_rebuilds(self, engine):
        engine.query(ORDER_PROBES["spo"])  # force statistics build
        total_before = engine.optimizer.statistics.histogram.total_triples
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        assert engine.refresh_statistics() is True
        assert engine.statistics_dirty == 0
        total_after = engine.optimizer.statistics.histogram.total_triples
        assert total_after == total_before + 1

    def test_auto_refresh_at_threshold(self, monkeypatch):
        engine = RDFTX.from_graph(small_graph(), optimizer=Optimizer())
        monkeypatch.setattr(engine_module, "STATS_REFRESH_UPDATES", 3)
        for i in range(3):
            engine.insert(f"S{i}", "p", "o", D("01/01/2015") + i)
        assert engine.statistics_dirty == 3
        engine.query("SELECT ?s {?s p o ?t}")  # compile triggers refresh
        assert engine.statistics_dirty == 0
        assert engine.optimizer.statistics.histogram.total_triples == 6

    def test_the_compile_after_the_256th_update_refreshes(self):
        assert engine_module.STATS_REFRESH_UPDATES == 256
        engine = RDFTX.from_graph(small_graph(), optimizer=Optimizer())
        for i in range(255):
            engine.insert(f"S{i}", "p", "o", D("01/01/2015") + i)
        engine.query("SELECT ?s {?s p o ?t}")
        assert engine.statistics_dirty == 255
        engine.insert("S255", "p", "o", D("01/01/2015") + 255)
        engine.query("SELECT ?s {?s p o ?t}")
        assert engine.statistics_dirty == 0
        assert engine.optimizer.statistics.histogram.total_triples == 259

    def test_concurrent_compiles_refresh_once(self, monkeypatch):
        """Two readers that both see the refresh due rebuild once: the
        one that loses the claim compiles with the current statistics."""
        engine = RDFTX.from_graph(small_graph(), optimizer=Optimizer())
        monkeypatch.setattr(engine_module, "STATS_REFRESH_UPDATES", 3)
        for i in range(3):
            engine.insert(f"S{i}", "p", "o", D("01/01/2015") + i)
        rebuilds = []
        rebuild_rows = engine.optimizer.rebuild_rows

        def counting_rebuild(*args):
            rebuilds.append(threading.current_thread().name)
            rebuild_rows(*args)

        # Hold the refresh span open until a second refresher arrives
        # (or the wait times out), so a check-then-act race would show.
        barrier = threading.Barrier(2, timeout=1.0)
        span = engine_module._trace.span

        def waiting_span(name, **attrs):
            if "stats_refresh" in attrs:
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    pass
            return span(name, **attrs)

        monkeypatch.setattr(engine.optimizer, "rebuild_rows",
                            counting_rebuild)
        monkeypatch.setattr(engine_module._trace, "span", waiting_span)
        errors = []

        def compile_one(text):
            try:
                engine.compile(text)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        readers = [
            threading.Thread(target=compile_one, args=(text,))
            for text in ("SELECT ?s {?s p o ?t}",
                         "SELECT ?o {Org leader ?o ?t}")
        ]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30)
            assert not reader.is_alive()
        assert errors == []
        assert len(rebuilds) == 1
        assert engine.statistics_dirty == 0

    def test_refresh_drops_the_plan_cache_before_rebuilding(
            self, engine, monkeypatch):
        probe = "SELECT ?o {Org leader ?o ?t}"
        engine.query(probe)
        assert len(engine._plan_cache) >= 1
        cached_at_rebuild = []
        rebuild_rows = engine.optimizer.rebuild_rows

        def recording_rebuild(*args):
            cached_at_rebuild.append(len(engine._plan_cache))
            rebuild_rows(*args)

        monkeypatch.setattr(engine.optimizer, "rebuild_rows",
                            recording_rebuild)
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        assert engine.refresh_statistics() is True
        assert cached_at_rebuild == [0]
        assert len(engine._plan_cache) == 0
        engine.query(probe)
        assert probe in engine._plan_cache

    def test_no_optimizer_refresh_is_noop(self):
        engine = RDFTX.from_graph(small_graph())
        engine.insert("a", "b", "c", D("01/01/2015"))
        assert engine.refresh_statistics() is False
        assert engine.statistics_dirty == 0


class TestHistoryTracksUpdates:
    def test_history_tracks_live_updates(self, engine):
        n = len(engine.history_rows())
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        assert len(engine.history_rows()) == n + 1
        assert engine.live_since("Org", "leader", "Alice") == D("01/01/2015")
        engine.delete("Org", "leader", "Alice", D("01/01/2018"))
        # the fact remains, with a closed period
        assert len(engine.history_rows()) == n + 1
        assert engine.live_since("Org", "leader", "Alice") is None

    def test_update_at_now_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.insert("a", "b", "c", NOW)
        with pytest.raises(ValueError):
            engine.delete("Org", "founded", "1868", NOW)


class TestRejectedUpdateLeavesNoTrace:
    """A refused insert/delete must not move any index's watermark, intern
    a term or change an answer (it used to advance the SPO tree alone, so
    a later valid update failed with TimeOrderError)."""

    @staticmethod
    def _state(engine):
        return (
            [tree.current_time for tree in engine.indexes.values()],
            engine.horizon,
            len(engine.dictionary),
            engine.history_rows(),
            engine.sizeof(),
            [engine.query(text).rows for text in ORDER_PROBES.values()],
            engine.query("SELECT ?s ?p ?o ?t {?s ?p ?o ?t}").rows,
        )

    def test_rejected_updates_change_nothing(self, engine):
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        before = self._state(engine)
        late = D("01/01/2030")
        with pytest.raises(DuplicateKeyError):
            engine.insert("Org", "leader", "Alice", late)
        with pytest.raises(KeyError):
            engine.delete("Org", "leader", "Bob", late)      # ended in 2010
        with pytest.raises(KeyError):
            engine.delete("Org", "leader", "Nobody", late)   # unknown term
        with pytest.raises(KeyError):
            engine.delete("Nowhere", "leader", "Alice", late)
        with pytest.raises(TimeOrderError):
            engine.insert("Fresh", "fresh", "fresh", D("01/01/2014"))
        with pytest.raises(TimeOrderError):
            engine.delete("Org", "leader", "Alice", D("01/01/2014"))
        assert self._state(engine) == before
        assert engine.statistics_dirty == 1
        engine.check_invariants()
        # The watermark stayed in 2015: an update before the rejected
        # ones' timestamp is still in order.
        engine.insert("Org", "leader", "Dan", D("01/01/2020"))
        assert len(set(t.current_time for t in engine.indexes.values())) == 1

    def test_delete_on_an_engine_never_loaded(self):
        engine = RDFTX()
        with pytest.raises(KeyError):
            engine.delete("a", "b", "c", 5)
        assert engine.dictionary is None
        assert engine.horizon == 1


class TestConcurrentReads:
    def test_readers_during_write_burst(self, engine):
        # Pure-engine version of the store-level test: the MVBT is
        # multiversion, so snapshot reads stay consistent while a single
        # writer appends (the GIL serializes the structure mutations).
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    result = engine.query(
                        "SELECT ?o ?t {Org leader ?o ?t}"
                    )
                    # Bob's closed period is immutable history: every
                    # snapshot must report it identically.
                    rows = {row["o"]: row["t"] for row in result.rows}
                    assert rows["Bob"] == PeriodSet(
                        [Period(D("01/01/2001"), D("01/01/2010"))]
                    )
                except Exception as error:  # noqa: BLE001
                    errors.append(error)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            base = D("01/01/2015")
            for i in range(120):
                engine.insert(f"Person_{i}", "member", "Org", base + i)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert errors == []
