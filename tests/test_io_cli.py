"""Tests for the temporal N-Quads format and the CLI."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.io import FormatError, dump_graph, dumps, load_graph, loads
from repro.model import NOW, TemporalGraph, date_to_chronon

D = date_to_chronon


def sample_graph() -> TemporalGraph:
    g = TemporalGraph()
    g.add("UC", "president", "Mark Yudof", D("2008-06-16"), D("2013-09-30"))
    g.add("UC", "president", "Janet_Napolitano", D("2013-09-30"))
    g.add("UC", "motto", 'say "Fiat Lux"', D("2000-01-01"))
    g.add("odd\\term", "p", "v", 10, 20)
    return g


class TestRoundtrip:
    def test_dumps_loads(self):
        graph = sample_graph()
        restored = loads(dumps(graph))
        assert sorted(map(str, restored.triples())) == sorted(
            map(str, graph.triples())
        )

    def test_file_roundtrip(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "data.tnq"
        count = dump_graph(graph, path)
        assert count == len(graph)
        restored = load_graph(path)
        assert len(restored) == len(graph)

    def test_gzip_roundtrip(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "data.tnq.gz"
        dump_graph(graph, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
        restored = load_graph(path)
        assert len(restored) == len(graph)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(
                        blacklist_categories=("Cs", "Cc")
                    ),
                    min_size=1,
                    max_size=20,
                ),
                st.integers(0, 10000),
                st.integers(1, 5000),
            ),
            min_size=0,
            max_size=20,
        )
    )
    def test_roundtrip_property(self, rows):
        graph = TemporalGraph()
        for term, start, length in rows:
            graph.add(term, f"p_{length}", term[::-1] or "v", start,
                      start + length)
        restored = loads(dumps(graph))
        assert sorted(map(str, restored.triples())) == sorted(
            map(str, graph.triples())
        )


    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.text(alphabet=' "\\#.ab', min_size=1, max_size=6),
        min_size=3, max_size=12,
    ))
    def test_roundtrip_of_characters_the_format_reserves(self, terms):
        # spaces, quotes, backslashes, the comment mark and the line
        # terminator, in every position of every field
        graph = TemporalGraph()
        terms += ["now", "."]
        for index in range(len(terms) - 2):
            graph.add(*terms[index:index + 3], index, index + 1)
        restored = loads(dumps(graph))
        assert sorted(map(str, restored.triples())) == sorted(
            map(str, graph.triples())
        )


class TestParsing:
    def test_comments_and_blanks(self):
        text = "# a comment\n\nA p B 2010-01-01 now .\n"
        graph = loads(text)
        assert len(graph) == 1

    def test_integer_chronons(self):
        graph = loads("A p B 100 200 .\n")
        triple = next(graph.triples())
        assert triple.period.start == 100
        assert triple.period.end == 200

    def test_trailing_dot_optional(self):
        assert len(loads("A p B 100 200\n")) == 1

    def test_wrong_field_count(self):
        with pytest.raises(FormatError):
            loads("A p B 100 .\n")

    def test_bad_timestamp(self):
        with pytest.raises(FormatError) as err:
            loads("A p B someday now .\n")
        assert err.value.line_number == 1

    def test_empty_interval_rejected(self):
        with pytest.raises(FormatError):
            loads("A p B 2010-01-01 2010-01-01 .\n")

    def test_quoted_terms(self):
        graph = loads('"two words" "a \\"b\\"" "c\\\\d" 1 2 .\n')
        triple = next(graph.triples())
        assert triple.subject == "two words"
        assert triple.predicate == 'a "b"'
        assert triple.object == "c\\d"


    @pytest.mark.parametrize("text, line_number, message", [
        ('A p "unterminated 1 2 .\n', 1,
         "cannot tokenize near '\"unterminated 1 2 .'"),
        ('A p B 1 2 .\nA p "x 1 2 .\n', 2, "cannot tokenize near '\"x 1 2 .'"),
        ('A p B 1 2 . "\n', 1, "cannot tokenize near '\"'"),
        ('"a\\', 1, "cannot tokenize near '\"a\\\\'"),
        ("A#c\n", 1, "expected 5 fields, found 1"),
        ('a"b"c d 1 2\n', 1, "expected 5 fields, found 6"),
        ('  "q" p o 1 2 .\n\n#x\n  A p o 1 x\n', 4, "bad timestamp 'x'"),
    ])
    def test_errors_name_the_line_and_the_rest_of_it(
            self, text, line_number, message):
        # messages pinned from the tokenizer this one replaced
        with pytest.raises(FormatError) as err:
            loads(text)
        assert err.value.line_number == line_number
        assert str(err.value) == f"line {line_number}: {message}"

    def test_comment_may_hold_a_quote(self):
        assert len(loads('A p B 1 2 . # c "\n')) == 1

    def test_terms_need_no_space_between_them(self):
        triple = next(loads('a"b c"d 1 2\n').triples())
        assert (triple.subject, triple.predicate, triple.object) == (
            "a", "b c", "d")


class TestCLI:
    @pytest.fixture()
    def dataset(self, tmp_path):
        path = tmp_path / "uc.tnq"
        dump_graph(sample_graph(), path)
        return str(path)

    def test_info(self, dataset, capsys):
        assert cli.main(["info", dataset]) == 0
        out = capsys.readouterr().out
        assert "triples:        4" in out
        assert "index size:" in out

    def test_info_on_a_snapshot(self, dataset, tmp_path, capsys):
        """A snapshot holds no row list; ``info`` reads the history off
        its indices and reports what it reports for the dataset."""
        assert cli.main(["info", dataset]) == 0
        expected = capsys.readouterr().out
        snap = str(tmp_path / "uc.snap")
        assert cli.main(["snapshot", dataset, snap]) == 0
        capsys.readouterr()
        assert cli.main(["info", snap]) == 0
        assert capsys.readouterr().out == expected

    def test_query(self, dataset, capsys):
        code = cli.main(
            ["query", dataset,
             "SELECT ?t {UC president Janet_Napolitano ?t}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[09/30/2013 ... now]" in out
        assert "1 row(s)" in out

    def test_query_explain_and_time(self, dataset, capsys):
        code = cli.main(
            ["query", dataset, "--explain", "--time",
             "SELECT ?p {UC ?p ?o ?t}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Plan:" in out
        assert "ms" in out

    def test_query_error(self, dataset, capsys):
        code = cli.main(["query", dataset, "SELECT bogus"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_generate_then_info(self, tmp_path, capsys):
        out_path = str(tmp_path / "wiki.tnq")
        assert cli.main(["generate", "wikipedia", "300", out_path]) == 0
        capsys.readouterr()
        assert cli.main(["info", out_path]) == 0
        assert "predicates:" in capsys.readouterr().out

    def test_shell_session(self, dataset, capsys, monkeypatch):
        lines = iter([
            ".help",
            "SELECT ?t {UC president Janet_Napolitano ?t};",
            ".explain",
            "SELECT ?p {UC ?p ?o ?t};",
            ".quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert cli.main(["shell", dataset]) == 0
        out = capsys.readouterr().out
        assert "[09/30/2013 ... now]" in out
        assert "explain on" in out
        assert "Plan:" in out


class TestServeData:
    """``serve --data`` hands a dataset or a snapshot to the store, which
    checkpoints it: a restart without ``--data`` serves the same facts."""

    @pytest.fixture()
    def served(self, monkeypatch):
        from repro.service import server

        seen = {}

        class Service:
            port = 0

            def serve_forever(self):
                pass

            def shutdown(self):
                pass

        def fake_serve(store, **options):
            seen["live_facts"] = store.live_facts
            return Service()

        monkeypatch.setattr(server, "serve", fake_serve)
        return seen

    @pytest.mark.parametrize("source", ["none", "dataset", "snapshot"])
    def test_data_is_served_and_survives_a_restart(
            self, source, served, tmp_path, capsys):
        argv = ["serve", str(tmp_path / "store"), "--no-fsync"]
        if source != "none":
            data = tmp_path / "uc.tnq"
            dump_graph(sample_graph(), data)
            if source == "snapshot":
                assert cli.main(["snapshot", str(data),
                                 str(tmp_path / "uc.snap")]) == 0
                data = tmp_path / "uc.snap"
            argv += ["--data", str(data)]
        assert cli.main(argv) == 0
        assert served["live_facts"] == (0 if source == "none" else 2)
        # ...and the adopted engine was checkpointed: a restart serves it
        assert cli.main(argv[:3]) == 0
        assert served["live_facts"] == (0 if source == "none" else 2)

def _post(url: str, payload: dict) -> dict:
    import json
    import urllib.request

    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


class TestClusterCommands:
    """``serve --shards`` brings a coordinator and its workers up behind
    the HTTP server; ``cluster-status`` reads its topology and federated
    metrics back; ``stats`` reports the registry after a query."""

    def test_serve_shards_answers_http_and_cluster_status_reads_it(
            self, tmp_path, monkeypatch, capsys):
        import threading

        from repro.service import server

        started, ready, outcome = {}, threading.Event(), {}
        real_serve = server.serve

        def serve(store, **options):
            started["service"] = real_serve(store, **options)
            ready.set()
            return started["service"]

        monkeypatch.setattr(server, "serve", serve)
        from repro.obs import metrics

        # the coordinator counts in this process's registry: two queries
        # and one update past what earlier tests left there
        queries = metrics.counter("cluster.coordinator.queries").value + 2
        updates = metrics.counter("cluster.coordinator.updates").value + 1
        data = tmp_path / "uc.tnq"
        dump_graph(sample_graph(), data)
        argv = ["serve", str(tmp_path / "clu"), "--shards", "2",
                "--port", "0", "--no-fsync", "--data", str(data)]
        thread = threading.Thread(
            target=lambda: outcome.setdefault("code", cli.main(argv)))
        thread.start()
        try:
            while not ready.wait(0.1):
                assert thread.is_alive(), "serve exited before listening"
            url = f"http://127.0.0.1:{started['service'].port}"
            assert _post(url + "/update", {
                "op": "insert", "subject": "S", "predicate": "p",
                "object": "o", "time": "2030-01-01"})["revision"] == 1
            answer = _post(url + "/query", {"query":
                           "SELECT ?who {UC president ?who ?t}"})
            assert answer["rows"] == [{"who": "Janet_Napolitano"},
                                      {"who": "Mark Yudof"}]
            assert _post(url + "/query", {"query": "SELECT ?o {S p ?o ?t}"}
                         )["rows"] == [{"o": "o"}]
            assert cli.main(["cluster-status", url, "--metrics"]) == 0
        finally:
            if "service" in started:
                started["service"].shutdown()
            thread.join(60)
        assert outcome == {"code": 0}
        out = capsys.readouterr().out
        assert "loaded 2 live facts across 2 shard(s)" in out
        assert "shards:    2\n" in out
        assert "watermark: 1" in out
        assert out.count("  shard ") == 2
        assert "federated metrics (watermark 1):" in out
        if metrics.ENABLED:  # REPRO_OBS=0 workers report no groups
            assert "[role=shard,shard=1]: " in out
            # the coordinator's own counters: 2 queries and 1 update
            assert (f"[role=coordinator]: {queries} queries, "
                    f"{updates} updates\n") in out

    def test_stats_reports_the_registry_after_the_queries(self, tmp_path,
                                                         capsys):
        from repro.obs import metrics

        data = tmp_path / "uc.tnq"
        dump_graph(sample_graph(), data)
        argv = ["stats", str(data), "--sparqlt",
                "SELECT ?who {UC president ?who ?t}"]
        assert cli.main([*argv, "--json", "--workload"]) == 0
        out = capsys.readouterr().out
        if not metrics.ENABLED:
            assert "observability is disabled" in out
            return
        assert '"engine.queries"' in out
        assert cli.main([*argv, "--prometheus"]) == 0
        assert "repro_engine_queries_total" in capsys.readouterr().out
        assert cli.main(["stats", str(data), "--sparqlt", "SELECT bogus"]
                        ) == 1
        assert "error:" in capsys.readouterr().err
