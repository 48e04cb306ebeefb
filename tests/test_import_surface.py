"""What a process imports before it is useful, and how a cluster comes up.

Time-to-ready is set by how much each process loads and by whether the
workers load it one after the other.  Both are pinned here with counts —
which modules are in ``sys.modules``, which event came first — never
with clocks.  The import checks run in fresh interpreters, because this
test process has long since imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(code: str, **env: str) -> str:
    """Run ``code`` in a new interpreter with only ``src`` on the path."""
    environ = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_") or k == "REPRO_LOCK_SANITIZER"}
    environ.update(env, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=environ, text=True,
        capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded(code: str, *candidates: str, **env: str) -> set[str]:
    """Which of ``candidates`` are in ``sys.modules`` after ``code``."""
    out = run_fresh(
        f"import sys\n{code}\n"
        f"print('LOADED', *(m for m in {candidates!r} if m in sys.modules))",
        **env,
    )
    return set(out.rsplit("LOADED", 1)[1].split())


class TestImportSurface:
    def test_worker_loads_no_http_server_and_no_linter(self):
        assert loaded(
            "import repro.cluster.worker",
            "http.server", "email", "ssl", "repro.service.server",
            "repro.lint", "repro.cluster.coordinator",
            "repro.cluster.membership", "repro.cluster.telemetry",
        ) == set()

    @pytest.mark.parametrize("module", [
        "repro.cluster.worker", "repro.engine.engine"])
    def test_untraced_process_loads_no_crypto_decimal_or_multiprocessing(
            self, module):
        # hashlib maps libcrypto and statistics loads decimal; only a
        # process that records observability needs either.  Reads are
        # serial, so nothing here needs a thread pool.
        assert loaded(
            f"import {module}",
            "hashlib", "_hashlib", "statistics", "decimal", "multiprocessing",
            "concurrent.futures",
            REPRO_OBS="0",
        ) == set()

    def test_shape_ids_are_pinned_and_hash_on_first_use(self):
        out = run_fresh(
            "import sys\n"
            "from repro.obs.workload import fingerprint_text\n"
            "assert 'hashlib' not in sys.modules\n"
            "print(*fingerprint_text('SELECT ?s ?o {?s ?p ?o ?t . "
            "?s q ?o ?u FILTER(YEAR(?t) = 2001)}'), sep='\\n')",
            REPRO_OBS="1",
        )
        assert out.splitlines() == [
            "9795dffa9705",
            "SELECT ?v0 ?v2 { ?v0 ?v1 ?v2 ?v3 . ?v0 <c> ?v2 ?v4 . "
            "FILTER (YEAR(?v3) = <number>) }",
        ]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/<pid>/maps")
    def test_worker_maps_no_tls_library_its_launcher_loaded(self, tmp_path):
        """A worker runs the worker module only: the launching script's
        top-level ``import http.client`` maps libssl into the coordinator
        but not into the worker it starts."""
        pytest.importorskip("ssl")
        out = run_fresh(f"""
import http.client
from repro.cluster import ClusterStore
from repro.obs import events

def tls(pid):
    with open(f"/proc/{{pid}}/maps") as maps:
        text = maps.read()
    return [lib for lib in ("libssl", "libcrypto") if lib in text]

with ClusterStore({str(tmp_path / "clu")!r}, shards=1, fsync=False):
    (pid,) = [e["pid"] for e in events.EVENTS.recent(100)
              if e["event"] == "cluster.event.worker_ready"]
    print("COORDINATOR", *tls("self"))
    print("WORKER", *tls(pid))
""", REPRO_OBS="1")
        mapped = {words[0]: words[1:]
                  for words in map(str.split, out.splitlines())}
        assert "libssl" in mapped["COORDINATOR"]
        assert mapped["WORKER"] == []

    def test_generate_loads_no_engine(self, tmp_path):
        out = tmp_path / "wiki.tnq"
        assert loaded(
            "import repro.cli\n"
            f"repro.cli.main(['generate', 'wikipedia', '50', {str(out)!r}])",
            "repro.engine", "repro.mvbt", "repro.mvsbt", "repro.optimizer",
            "repro.sparqlt", "repro.lint", "repro.service",
        ) == set()
        assert out.read_text().count("\n") > 50

    @pytest.mark.parametrize("package", [
        "repro", "repro.service", "repro.datasets", "repro.obs",
        "repro.cluster",
    ])
    def test_public_names_resolve_lazily(self, package):
        out = run_fresh(f"""
import importlib, sys
import repro
assert not any(m.startswith("repro.") and m != "repro._lazy"
               for m in sys.modules), sorted(sys.modules)
package = importlib.import_module({package!r})
assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
for name in package.__all__:
    assert name in dir(package), name
    assert getattr(package, name) is not None, name
    assert name in vars(package), name      # resolved once, then stored
namespace = {{}}
exec("from {package} import *", namespace)
assert set(package.__all__) <= set(namespace)
try:
    package.no_such_name
except AttributeError as error:
    assert "no_such_name" in str(error)
else:
    raise AssertionError("unknown name resolved")
print("OK")
""")
        assert out.strip() == "OK"

    def test_submodules_stay_importable_by_name(self):
        # `from package import submodule` goes through the package's
        # __getattr__ first and must fall back to a real import
        run_fresh(
            "from repro.obs import metrics, trace\n"
            "from repro.service import store\n"
            "from repro.datasets import wikipedia\n"
            "from repro import io, RDFTX, TemporalGraph\n"
            "assert RDFTX.from_graph(TemporalGraph()) is not None\n"
        )

    @pytest.mark.parametrize("switch, enabled", [("0", False), ("1", True)])
    def test_kill_switch_read_when_metrics_first_load(self, switch, enabled):
        out = run_fresh(
            "import sys, repro.obs\n"
            "assert 'repro.obs.metrics' not in sys.modules\n"
            "print(repro.obs.ENABLED, repro.obs.enabled())",
            REPRO_OBS=switch,
        )
        assert out.split() == [str(enabled)] * 2


class TestConcurrentBringUp:
    def test_each_wave_starts_every_worker_before_awaiting_any(
            self, tmp_path):
        from repro.cluster import ClusterStore
        from repro.obs import events

        events.EVENTS.clear()
        with ClusterStore(tmp_path / "clu", shards=2, replicas=1,
                          fsync=False):
            log = [e for e in reversed(events.EVENTS.recent(100))
                   if e["event"] in ("cluster.event.worker_started",
                                     "cluster.event.worker_ready")]
        # two waves of two workers: started, started, ready, ready
        kinds = [e["event"].rsplit("_", 1)[1] for e in log]
        assert kinds == ["started", "started", "ready", "ready"] * 2
        assert [e["role"] for e in log] == ["shard"] * 4 + ["replica"] * 4
        for wave in (log[:4], log[4:]):
            assert sorted(e["shard_id"] for e in wave[:2]) == [0, 1]
            assert ({e["pid"] for e in wave[:2]}
                    == {e["pid"] for e in wave[2:]})
        # both primaries' [started, ready] intervals overlap
        started = {e["shard_id"]: e["ts"] for e in log[:2]}
        ready = {e["shard_id"]: e["ts"] for e in log[2:4]}
        assert max(started.values()) <= min(ready.values())
