"""Live updates on a loaded engine: visibility, caches, statistics.

The paper's engine is bulk-loaded once; these tests pin down the behaviour
of the update path the serving layer depends on — updates must be visible
through every index order immediately, compiled-plan caches must not serve
stale plans, and every write keeps the optimizer statistics current.
"""

import pickle
import threading

import pytest

from repro.engine import RDFTX
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

    def test_statistics_refresh_keeps_cached_plans(self, engine):
        probe = "SELECT ?o {Org leader ?o ?t}"
        engine.query(probe)
        assert probe in engine._plan_cache
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        assert engine.refresh_statistics() is True
        # Only a load drops plans: writes keep the statistics current, and
        # an explicit rebuild leaves the prepared plans alone too.
        assert probe in engine._plan_cache
        engine.load(small_graph())
        assert probe not in engine._plan_cache

    def test_new_term_usable_after_insert(self, engine):
        # "Alice" is not in the dictionary before the insert; a cached
        # plan compiled earlier must not pin the term's absence either.
        probe = "SELECT ?t {Org leader Alice ?t}"
        assert engine.query(probe).rows == []
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        assert len(engine.query(probe).rows) == 1


class TestStatisticsStaleness:
    """Writes keep the statistics current; nothing rebuilds them behind a
    compile."""

    def test_manual_refresh_resets_and_rebuilds(self, engine):
        engine.query(ORDER_PROBES["spo"])
        loaded = engine.optimizer.statistics.histogram
        total_before = loaded.total_triples
        engine.insert("Org", "leader", "Alice", D("01/01/2015"))
        assert loaded.total_triples == total_before + 1
        assert engine.refresh_statistics() is True
        rebuilt = engine.optimizer.statistics.histogram
        assert rebuilt is not loaded
        assert rebuilt.total_triples == total_before + 1

    def test_writes_keep_the_statistics_current(self):
        # Unit thresholds (an unbounded budget keeps them): estimates are
        # close to exact, so the new facts must show in them.
        engine = RDFTX.from_graph(
            small_graph(),
            optimizer=Optimizer(cm=1, lm=1, budget_fraction=float("inf")))
        histogram = engine.optimizer.statistics.histogram
        for i in range(3):
            engine.insert(f"S{i}", "p", "o", D("01/01/2015") + i)
        assert engine.optimizer.statistics.histogram is histogram
        assert histogram.total_triples == 6
        p = engine.dictionary.lookup("p")
        assert histogram.predicate_occurrences(
            p, D("01/01/2015") + 2, NOW) == pytest.approx(3, rel=0.1)
        assert engine.query("SELECT ?s {?s p o ?t}").column("s") == [
            "S0", "S1", "S2"]

    def test_no_rebuild_after_256_updates(self, monkeypatch):
        engine = RDFTX.from_graph(small_graph(), optimizer=Optimizer())
        rebuilds = []
        monkeypatch.setattr(engine.optimizer, "rebuild_rows",
                            lambda *args: rebuilds.append(args))
        engine.query("SELECT ?s {?s p o ?t}")
        for i in range(300):
            engine.insert(f"S{i}", "p", "o", D("01/01/2015") + i)
            engine.query("SELECT ?s {?s p o ?t}")
        assert rebuilds == []
        histogram = engine.optimizer.statistics.histogram
        assert histogram.total_triples == 303

    def test_readers_compile_while_a_writer_maintains_statistics(self):
        """Compiles that read the histogram (each text a plan-cache miss)
        run beside a writer that grows it through a served store; the
        statistics end as a serial run of the same writes leaves them."""
        from repro.service.store import TemporalStore

        def stream(apply):
            for i in range(200):
                # Fresh subjects, a subject whose set grows, and deletes.
                apply("insert", f"S{i}", f"q{i % 7}", f"o{i % 5}",
                      D("01/01/2015") + i)
                if i % 3 == 0:
                    apply("insert", "Org", f"q{i % 7}", f"v{i}",
                          D("01/01/2015") + i)
                if i % 4 == 3:
                    apply("delete", f"S{i - 1}", f"q{(i - 1) % 7}",
                          f"o{(i - 1) % 5}", D("01/01/2015") + i)

        serial = RDFTX.from_graph(small_graph(), optimizer=Optimizer())
        stream(lambda op, *fact: getattr(serial, op)(*fact))

        import tempfile
        with tempfile.TemporaryDirectory() as root:
            store = TemporalStore(root)
            store.adopt(RDFTX.from_graph(small_graph(),
                                         optimizer=Optimizer()))
            errors = []
            done = threading.Event()

            def reader(offset):
                i = offset
                while not done.is_set():
                    try:
                        store.query(
                            f"SELECT ?s ?o {{?s q{i % 7} ?o ?t . "
                            f"?s leader ?x{i} ?t}}")
                    except Exception as error:  # surfaced below
                        errors.append(error)
                        return
                    i += 2

            readers = [threading.Thread(target=reader, args=(k,))
                       for k in range(2)]
            for thread in readers:
                thread.start()
            try:
                stream(lambda op, *fact: getattr(store, op)(*fact))
            finally:
                done.set()
                for thread in readers:
                    thread.join(timeout=30)
            assert errors == []
            assert not any(thread.is_alive() for thread in readers)
            maintained = store.engine.optimizer.statistics.histogram
            store.close()
        expected = serial.optimizer.statistics.histogram
        assert maintained.core_sizeof() == expected.core_sizeof()
        assert maintained.charsets.sets == expected.charsets.sets
        for t1 in range(D("01/01/2015"), D("01/01/2015") + 200, 17):
            assert (maintained.triples_alive(t1, t1 + 30)
                    == expected.triples_alive(t1, t1 + 30))

    def test_no_optimizer_refresh_is_noop(self):
        engine = RDFTX.from_graph(small_graph())
        engine.insert("a", "b", "c", D("01/01/2015"))
        assert engine.refresh_statistics() is False


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
            # The statistics change in place on every applied write, so a
            # refused one must leave them byte for byte as they were.
            pickle.dumps(engine.optimizer.statistics.histogram),
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
