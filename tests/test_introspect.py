"""Storage health introspection and the `repro-tx doctor` command."""

import json

import pytest

from repro import io as tio
from repro.cli import main
from repro.engine import RDFTX
from repro.model.graph import TemporalGraph
from repro.model.time import NOW
from repro.obs.introspect import (
    engine_report,
    find_anomalies,
    process_rss_bytes,
    process_uptime_seconds,
    render_report,
    tree_report,
)
from repro.service.store import TemporalStore


def small_graph(n=60):
    graph = TemporalGraph()
    for i in range(n):
        end = NOW if i % 3 else 10 + i % 7
        graph.add(f"s{i}", f"p{i % 5}", f"o{i}", 1 + i % 7, end)
    return graph


@pytest.fixture()
def engine():
    return RDFTX.from_graph(small_graph())


# ------------------------------------------------------------ process state


def test_process_helpers():
    assert process_uptime_seconds() > 0
    rss = process_rss_bytes()
    if rss is not None:  # None off Linux
        assert rss > 1024 * 1024


# ------------------------------------------------------------- tree reports


def test_tree_report_structure(engine):
    # The write check's probe of SPO builds a live index (a fact naming
    # a new term is not probed, and the trees write it blind).
    engine.insert("s0", "p0", "o1", 20)
    report = tree_report(engine.indexes["spo"])
    assert report["depth"] >= 1
    assert report["nodes"] >= report["leaves"] >= 1
    assert report["nodes"] == report["leaves"] + report["index_nodes"]
    assert 0.0 < report["live_ratio"] <= 1.0
    assert report["entries"] >= report["live_entries"]
    assert report["compressed_leaves"] + report["plain_leaves"] \
        == report["leaves"]
    assert 0.0 < report["live_leaf_fill"] <= 1.0
    assert report["size_bytes"] > 0
    assert report["live_index_bytes"] >= 36  # a record per live key
    # Delta compression beats the standard layout on this data.
    assert report["compression_ratio"] < 1.0
    assert report["live_records"] == engine.indexes["spo"].live_records


def test_tree_report_does_not_decode_leaves(engine):
    from repro.obs import metrics

    before = metrics.REGISTRY.counter(
        "mvbt.compression.leaves_decoded"
    ).value
    tree_report(engine.indexes["spo"])
    after = metrics.REGISTRY.counter(
        "mvbt.compression.leaves_decoded"
    ).value
    assert after == before


def test_engine_report_covers_all_components(engine):
    report = engine_report(engine)
    assert set(report["indexes"]) == {"spo", "pos", "ops"}
    assert report["dictionary"]["terms"] > 0
    assert report["plan_cache"]["capacity"] > 0
    assert report["statistics"] == {
        "optimizer": False, "histogram_bytes": None, "budget_bytes": None,
        "cm": None, "lm": None,
    }
    assert report["total_size_bytes"] == engine.sizeof()
    assert report["decoded_memo"] == {
        "entries": 0, "leaves": 0, "interned": 0, "budget": 1 << 18,
    }


def test_engine_report_shows_the_histogram_against_its_budget():
    """With an optimizer, the report shows the histogram's size, its
    budget and its thresholds, and a write moves them at once."""
    from repro.optimizer import Optimizer

    engine = RDFTX.from_graph(small_graph(), optimizer=Optimizer())
    histogram = engine.optimizer.statistics.histogram
    before = engine_report(engine)["statistics"]
    assert before == {
        "optimizer": True, "histogram_bytes": histogram.core_sizeof(),
        "budget_bytes": int(0.10 * histogram.raw_bytes),
        "cm": histogram.cm, "lm": histogram.lm,
    }
    engine.insert("fresh", "p_new", "o_new", 100)
    after = engine_report(engine)["statistics"]
    assert after["histogram_bytes"] > before["histogram_bytes"]
    assert after["budget_bytes"] > before["budget_bytes"]
    assert (f"optimizer: on, histogram {after['histogram_bytes']} of "
            f"{after['budget_bytes']} budget bytes (cm {after['cm']}, "
            f"lm {after['lm']})") in render_report(engine_report(engine))


def test_engine_report_counts_the_decoded_memo(engine):
    """Hot reads show up in the engine's own memo block, and only
    there; an edit of a memoized leaf hands its records back."""
    other = RDFTX.from_graph(small_graph())
    for _ in range(3):
        engine.query("SELECT ?s ?o {?s p1 ?o ?t}")
    memo = engine_report(engine)["decoded_memo"]
    assert memo["entries"] > 0 and memo["leaves"] > 0
    assert memo["interned"] > 0
    assert memo["entries"] == sum(
        leaf.count for tree in engine.indexes.values()
        for leaf in tree.leaf_nodes() if leaf._store._decoded is not None
    )
    assert engine_report(other)["decoded_memo"]["entries"] == 0
    engine.insert("s999", "p1", "o999", 100)
    assert engine_report(engine)["decoded_memo"]["entries"] < memo["entries"]


# ---------------------------------------------------------------- anomalies


def test_healthy_engine_has_no_anomalies(engine):
    assert find_anomalies(engine_report(engine)) == []


def test_anomaly_live_count_mismatch(engine):
    report = engine_report(engine)
    report["indexes"]["spo"]["live_records"] += 1
    warnings = find_anomalies(report)
    assert any("disagree" in w for w in warnings)


def churn(engine, updates=500):
    """Stream inserts and deletes through the engine: enough version
    splits that most leaves of every index have died."""
    live = []
    for i in range(updates):
        if i % 3 == 2:
            engine.delete(*live.pop(0), 100 + i)
        else:
            fact = (f"n{i % 40}", f"p{i % 5}", f"v{i}")
            engine.insert(*fact, 100 + i)
            live.append(fact)


def test_updates_leave_no_partial_compression(engine):
    """Version splits create their leaves packed: a store that has taken
    updates is not "partially compressed"."""
    churn(engine)
    report = engine_report(engine)
    for name, tree in report["indexes"].items():
        assert tree["packed"]
        assert tree["sealed_leaves"] > 0, name
        assert tree["plain_leaves"] == 0, name
        assert tree["compressed_leaves"] == tree["leaves"]
        assert tree["live_leaves"] + tree["sealed_leaves"] == tree["leaves"]
    assert not any("not delta-compressed" in w for w in find_anomalies(report))


@pytest.mark.parametrize("alive", [True, False])
def test_anomaly_plain_leaf_in_a_packed_tree(engine, alive):
    churn(engine)
    leaf = next(leaf for leaf in engine.indexes["spo"].leaf_nodes()
                if leaf.is_alive == alive)
    leaf.decompress()
    report = engine_report(engine)
    assert report["indexes"]["spo"]["plain_leaves"] == 1
    warnings = find_anomalies(report)
    assert sum("not delta-compressed" in w for w in warnings) == 1
    assert "index spo: 1 leaf" in " ".join(warnings)


def test_uncompressed_engine_is_not_an_anomaly():
    engine = RDFTX.from_graph(small_graph(), compress=False)
    churn(engine, 200)
    report = engine_report(engine)
    assert not report["indexes"]["spo"]["packed"]
    assert report["indexes"]["spo"]["plain_leaves"] > 0
    assert not any("not delta-compressed" in w for w in find_anomalies(report))


def test_anomaly_wal_backlog(engine):
    report = engine_report(engine)
    report["store"] = {"wal": {
        "pending_records": 3, "records_since_checkpoint": 50_000,
    }}
    warnings = find_anomalies(report)
    assert any("pending group" in w for w in warnings)
    assert any("since the last checkpoint" in w for w in warnings)


# ---------------------------------------------------------------- rendering


def test_render_report_lists_every_index(engine):
    text = render_report(engine_report(engine))
    for name in ("spo", "pos", "ops"):
        assert name in text
    assert "dictionary:" in text
    assert "plan cache:" in text
    assert "decoded-leaf memo: 0/262144 record(s)" in text


# ------------------------------------------------------------------- doctor


def test_doctor_on_dataset_file(tmp_path, capsys):
    path = tmp_path / "data.tnq"
    tio.dump_graph(small_graph(), path)
    assert main(["doctor", str(path)]) == 0
    out = capsys.readouterr().out
    assert "spo" in out
    assert "no anomalies found" in out


def test_doctor_json_output(tmp_path, capsys):
    path = tmp_path / "data.tnq"
    tio.dump_graph(small_graph(), path)
    assert main(["doctor", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["indexes"]) == {"spo", "pos", "ops"}
    assert report["warnings"] == []


def test_doctor_on_store_directory(tmp_path, capsys):
    directory = tmp_path / "store"
    with TemporalStore(directory) as store:
        store.load_dataset(small_graph())
        store.insert("sX", "p0", "oX", 20)
    assert main(["doctor", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "WAL:" in out
    assert "revision: 1" in out
