"""repro.lint: the fixture corpus, pragmas, CLI, and the gate.

Every rule ID has at least one positive fixture (the rule must fire) and
one negative fixture (it must stay silent); the corpus lives in
``tests/lint_fixtures/``.  Path-scoped rules are exercised through the
``# repro-lint: scope=…`` pragma, which is itself under test here.  The
final test is the gate the CI job enforces: ``repro-tx lint`` over the
real source tree exits 0.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, RULES_BY_ID, run_lint
from repro.lint.checker import (
    JSON_SCHEMA_VERSION,
    PARSE_ERROR_RULE,
    load_module,
    main,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent

ALL_IDS = sorted(RULES_BY_ID)


def findings_for(rule_id: str, fixture: str) -> list:
    """Run exactly one rule over one fixture file."""
    path = FIXTURES / fixture
    assert path.exists(), f"missing fixture {fixture}"
    return run_lint([str(path)], rules=[RULES_BY_ID[rule_id]])


# ------------------------------------------------------------------ registry


def test_registry_covers_required_rule_count():
    assert len(ALL_RULES) >= 6
    assert all(rule.id.startswith("RL") for rule in ALL_RULES)
    assert all(rule.title and rule.rationale for rule in ALL_RULES)


def test_registry_ids_are_unique_and_sorted():
    ids = [rule.id for rule in ALL_RULES]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)


# ------------------------------------------------------------ fixture corpus

POSITIVE_EXPECTATIONS = {
    "RL001": ("rl001_pos.py", 2),  # fsync under write lock, sleep under read
    "RL002": ("rl002_pos.py", 3),  # engine swap, insert, revision bump
    "RL003": ("rl003_pos.py", 2),  # apply-before-append, unlogged apply
    "RL004": ("rl004_pos.py", 2),  # .end and .death outside helpers
    "RL005": ("rl005_pos.py", 5),  # import, construction, ._buf poke,
                                   # pieces.append, entries().sort
    "RL006": ("rl006_pos.py", 3),  # time.time, uuid4, random.random
    "RL007": ("rl007_pos.py", 2),  # silent broad except, bare except
    "RL008": ("rl008_pos.py", 4),  # [], {}, set(), list()
    "RL010": ("rl010_pos.py", 2),  # module-level + control-flow assert
    "RL016": ("rl016_pos.py", 2),  # setsockopt-then-return, write-then-close
}

NEGATIVE_FIXTURES = {
    "RL001": ["rl001_neg.py"],
    "RL002": ["rl002_neg.py"],
    "RL003": ["rl003_neg.py"],
    "RL004": ["rl004_neg.py"],
    "RL005": ["rl005_neg.py", "rl005_pieces_neg.py"],
    "RL006": ["rl006_neg.py", "rl006_unscoped_neg.py"],
    "RL007": ["rl007_neg.py", "rl007_unscoped_neg.py"],
    "RL008": ["rl008_neg.py"],
    "RL010": ["rl010_neg.py"],
    "RL016": ["rl016_neg.py"],
}


@pytest.mark.parametrize("rule_id", ALL_IDS)
def test_every_rule_has_fixtures(rule_id):
    assert rule_id in POSITIVE_EXPECTATIONS
    assert rule_id in NEGATIVE_FIXTURES


@pytest.mark.parametrize("rule_id", sorted(POSITIVE_EXPECTATIONS))
def test_positive_fixture_fires(rule_id):
    fixture, expected = POSITIVE_EXPECTATIONS[rule_id]
    findings = findings_for(rule_id, fixture)
    assert len(findings) == expected, [f.render() for f in findings]
    assert all(f.rule == rule_id for f in findings)
    # Every finding carries a usable location and snippet.
    assert all(f.line >= 1 and f.message for f in findings)


@pytest.mark.parametrize(
    "rule_id,fixture",
    [(rid, fx) for rid, fixtures in sorted(NEGATIVE_FIXTURES.items())
     for fx in fixtures],
)
def test_negative_fixture_stays_silent(rule_id, fixture):
    findings = findings_for(rule_id, fixture)
    assert findings == [], [f.render() for f in findings]


#: One regression per rule with no recorded catch, seeded into the real
#: module the rule guards: (file, anchor, replacement).  The tier-1 suite
#: passes with each applied, and the lock sanitizer raises on none of
#: them (docs/lint_rules.md, "Caught").
SEEDED_REGRESSIONS = {
    # open() under the read lock: the sanitizer hooks fsync, sleep and
    # socket I/O, not open().
    "RL001": (
        "src/repro/service/store.py",
        "        with self._rw.read_locked():\n"
        "            report = _introspect.engine_report(self.engine)\n",
        "        with self._rw.read_locked():\n"
        "            open(self.wal_path, \"rb\").close()\n"
        "            report = _introspect.engine_report(self.engine)\n",
    ),
    # The revision bump after the write lock is released: a reader can
    # see the applied update under the old revision and cache it there,
    # a race no test orders.
    "RL002": (
        "src/repro/service/store.py",
        "            self.engine.apply_update(op, subject, predicate, object, time,\n"
        "                                     ids)\n"
        "            self._revision = lsn\n",
        "            self.engine.apply_update(op, subject, predicate, object, time,\n"
        "                                     ids)\n"
        "        self._revision = lsn\n",
    ),
    # Apply before the WAL append: loses an update only on a crash
    # between the two.
    "RL003": (
        "src/repro/service/store.py",
        "        lsn = self._wal.append(op, subject, predicate, object, time)\n"
        "        with self._rw.write_locked():\n"
        "            self.engine.apply_update(op, subject, predicate, object, time,\n"
        "                                     ids)\n",
        "        with self._rw.write_locked():\n"
        "            self.engine.apply_update(op, subject, predicate, object, time,\n"
        "                                     ids)\n"
        "        lsn = self._wal.append(op, subject, predicate, object, time)\n"
        "        with self._rw.write_locked():\n",
    ),
    # A failed restructure reopens the deleted entry (te back to NOW,
    # the leaf's live index left stale), on a path no test takes.
    "RL004": (
        "src/repro/mvbt/tree.py",
        "            tree._now = now\n"
        "            tree._restructure(tree._descend(key), time)\n",
        "            tree._now = now\n"
        "            try:\n"
        "                tree._restructure(tree._descend(key), time)\n"
        "            except MemoryError:\n"
        "                for entry in node.entries():\n"
        "                    if entry.key == key:\n"
        "                        entry.end = NOW\n"
        "                raise\n",
    ),
    # A second copy of the packed-leaf size formula, off the raw buffer:
    # the same numbers until the header layout changes.
    "RL005": (
        "src/repro/obs/introspect.py",
        "        size_bytes += node.sizeof()\n",
        "        if node.is_leaf and node.is_compressed:\n"
        "            size_bytes += NODE_HEADER_BYTES + 40 + len(node._store._buf)\n"
        "        else:\n"
        "            size_bytes += node.sizeof()\n",
    ),
}


@pytest.mark.parametrize("rule_id", sorted(SEEDED_REGRESSIONS))
def test_seeded_regression_in_real_source(rule_id, tmp_path):
    relative, anchor, seeded = SEEDED_REGRESSIONS[rule_id]
    text = (REPO_ROOT / relative).read_text()
    assert text.count(anchor) == 1, f"anchor moved in {relative}"
    target = tmp_path / relative
    target.parent.mkdir(parents=True)
    target.write_text(text)
    rules = [RULES_BY_ID[rule_id]]
    assert run_lint([str(target)], rules=rules, root=tmp_path) == []
    target.write_text(text.replace(anchor, seeded))
    findings = run_lint([str(target)], rules=rules, root=tmp_path)
    assert len(findings) == 1, [f.render() for f in findings]


def test_positive_fixtures_exit_nonzero_via_cli(capsys):
    """The acceptance gate: `repro-tx lint` exits non-zero per positive."""
    for rule_id, (fixture, _) in sorted(POSITIVE_EXPECTATIONS.items()):
        code = main([str(FIXTURES / fixture), "--rules", rule_id])
        assert code == 1, f"{fixture} should fail the lint gate"
    capsys.readouterr()


# ---------------------------------------------------------------- pragmas


def test_scope_pragma_rewrites_logical_path():
    module = load_module(FIXTURES / "rl006_pos.py")
    assert module.logical_path == "src/repro/service/wal.py"


def test_inline_disable_suppresses_one_line(tmp_path):
    target = tmp_path / "snippet.py"
    target.write_text(
        "def f(xs=[]):  # repro-lint: disable=RL008\n"
        "    return xs\n"
        "def g(ys=[]):\n"
        "    return ys\n"
    )
    findings = run_lint([str(target)], rules=[RULES_BY_ID["RL008"]])
    assert len(findings) == 1
    assert "g" in findings[0].message


def test_disable_file_pragma_suppresses_whole_file(tmp_path):
    target = tmp_path / "snippet.py"
    target.write_text(
        "# repro-lint: disable-file=RL008\n"
        "def f(xs=[]):\n"
        "    return xs\n"
        "def g(ys={}):\n"
        "    return ys\n"
    )
    assert run_lint([str(target)], rules=[RULES_BY_ID["RL008"]]) == []


def test_disable_file_pragma_ignored_past_header(tmp_path):
    filler = "\n".join(f"x{i} = {i}" for i in range(25))
    target = tmp_path / "snippet.py"
    target.write_text(
        filler + "\n# repro-lint: disable-file=RL008\ndef f(xs=[]):\n"
        "    return xs\n"
    )
    findings = run_lint([str(target)], rules=[RULES_BY_ID["RL008"]])
    assert len(findings) == 1


def test_pragma_quoted_in_a_docstring_is_not_a_pragma():
    findings = findings_for("RL004", "rl004_quoted_pragma_pos.py")
    assert [f.line for f in findings] == [10]


def test_pragma_quoted_in_a_string_is_not_a_pragma(tmp_path):
    target = tmp_path / "snippet.py"
    target.write_text(
        'def f(xs=[], note="# repro-lint: disable=RL008"):\n'
        "    return xs\n"
    )
    findings = run_lint([str(target)], rules=[RULES_BY_ID["RL008"]])
    assert len(findings) == 1


def test_checker_docstring_examples_disable_nothing():
    module = load_module(REPO_ROOT / "src" / "repro" / "lint" / "checker.py")
    assert module.file_disables == set()
    assert module.line_disables == {}


def test_syntax_error_reports_rl000(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    findings = run_lint([str(target)])
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_RULE


# --------------------------------------------------------------------- CLI


def test_cli_unknown_rule_is_usage_error(capsys):
    assert main(["--rules", "RL999", str(FIXTURES)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_missing_path_is_usage_error(capsys):
    assert main(["definitely/not/a/path.py"]) == 2
    capsys.readouterr()


def test_cli_json_format(tmp_path, capsys):
    target = tmp_path / "snippet.py"
    target.write_text("def f(xs=[]):\n    return xs\n")
    assert main([str(target), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["findings"][0]["rule"] == "RL008"
    assert payload["findings"][0]["line"] == 1


@pytest.mark.parametrize("flag", [
    ["--baseline", "lint.json"], ["--no-baseline"], ["--update-baseline"],
    ["--prune-baseline"],
], ids=lambda flag: flag[0].lstrip("-"))
def test_cli_rejects_baseline_flags(flag, capsys):
    """There is no baseline: findings are fixed or pragma'd in place."""
    with pytest.raises(SystemExit) as exited:
        main([str(FIXTURES / "rl008_neg.py"), *flag])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in out


# ------------------------------------------------------------ the real gate


def test_repo_source_tree_is_clean():
    """`repro-tx lint` on the shipped tree: zero findings, exit 0."""
    findings = run_lint([str(REPO_ROOT / "src")])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_repo_gate_via_subprocess():
    """End to end through the console entry point, as CI runs it."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint",
         str(REPO_ROOT / "src")],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"),
             "PATH": shutil.os.environ.get("PATH", "")},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout
