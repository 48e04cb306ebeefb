"""The interprocedural analyses: call graph and lock flow.

The fixture corpus in ``test_lint`` proves each rule fires and stays
silent on canned shapes; these tests pin down the *interprocedural*
behaviour — witness chains, and cycle reports naming both paths.
(Protocol drift, once RL015's job, is ``tests/test_cluster_protocol.py``.)
"""

from pathlib import Path

from repro.lint import RULES_BY_ID, run_lint
from repro.lint.callgraph import module_name, project_index
from repro.lint.checker import load_module
from repro.lint.lockflow import BlockingReach, LockFlow, find_cycles

FIXTURES = Path(__file__).parent / "lint_fixtures"


def _module(path: Path):
    loaded = load_module(path)
    assert not isinstance(loaded, type(None))
    return loaded


# ------------------------------------------------------------- call graph


def test_module_name_resolution():
    assert module_name("src/repro/cluster/worker.py") == "repro.cluster.worker"
    assert module_name("src/repro/lint/__init__.py") == "repro.lint"
    assert module_name("scratch/tool.py") == "tool"


def test_self_method_calls_resolve_across_hops():
    module = _module(FIXTURES / "rl013_pos.py")
    index = project_index([module])
    info = index.function_at("repro.cluster.coordinator.Coordinator.update")
    assert info is not None
    targets = {site.target for site in info.calls if site.target}
    assert "repro.cluster.coordinator.Coordinator._flush_all" in targets


def test_blocking_reach_reports_the_witness_chain():
    module = _module(FIXTURES / "rl013_pos.py")
    index = project_index([module])
    reach = BlockingReach(index)
    hit = reach.reach("repro.cluster.coordinator.Coordinator._flush_all")
    assert hit is not None
    desc, chain = hit
    assert desc == "time.sleep()"
    assert chain == ("repro.cluster.coordinator.Coordinator._push",)


def test_rl013_finding_names_the_chain():
    findings = run_lint(
        [str(FIXTURES / "rl013_pos.py")], rules=[RULES_BY_ID["RL013"]]
    )
    two_hop = [f for f in findings if "->" in f.message]
    assert len(two_hop) == 1
    assert "Coordinator._flush_all -> Coordinator._push" in two_hop[0].message
    assert "self._writer" in two_hop[0].message


# -------------------------------------------------------------- lock flow


def test_lock_order_cycle_reports_both_witness_paths():
    findings = run_lint(
        [str(FIXTURES / "rl014_pos.py")], rules=[RULES_BY_ID["RL014"]]
    )
    assert len(findings) == 1
    message = findings[0].message
    # Both legs of the cycle, each with its own witness location.
    assert "Store._writer -> Store._maint" in message
    assert "Store._maint -> Store._writer" in message
    # (the fixture's scope pragma sets the logical path rules report)
    assert message.count("src/repro/service/store.py") == 2
    # The interprocedural leg names the call chain to the acquisition.
    assert (
        "repro.service.store.Store.compact -> "
        "repro.service.store.Store._flush"
    ) in message


def test_lockflow_discovers_and_orders_locks():
    module = _module(FIXTURES / "rl014_pos.py")
    index = project_index([module])
    flow = LockFlow(index)
    labels = {lock.label for lock in flow.locks}
    assert labels == {"Store._writer", "Store._maint"}
    edges = flow.order_edges()
    cycles = list(find_cycles(edges))
    assert len(cycles) == 1

