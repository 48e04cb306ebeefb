"""The ``repro-tx lint`` driver: file collection, pragmas, orchestration.

Suppression syntax (comment tokens only: the same text inside a string or
docstring, like the examples below, is not a pragma):

``# repro-lint: disable=RL001,RL007``
    Suppress the listed rules on this line.
``# repro-lint: disable-file=RL004``
    Suppress the listed rules for the whole file (first 20 lines only).
``# repro-lint: scope=src/repro/service/wal.py``
    Pretend this file lives at the given logical path.  Used by the test
    fixture corpus so path-scoped rules (determinism, compression
    confinement) can be exercised from ``tests/lint_fixtures/``.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from .rules import ALL_RULES, RULES_BY_ID
from .rules.base import Finding, Rule

#: Version of the ``--format json`` output envelope.
JSON_SCHEMA_VERSION = 2

#: ``RL000`` marks files the checker itself cannot analyse (syntax errors);
#: it is not suppressible and has no Rule class.
PARSE_ERROR_RULE = "RL000"

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file|scope)\s*=\s*([\w./,\- ]+)"
)

#: How far into a file the ``disable-file``/``scope`` pragmas are honored.
HEADER_LINES = 20


class LintError(Exception):
    """Unusable invocation (bad path, unknown rule ID)."""


@dataclass
class ModuleInfo:
    """One parsed source file plus its suppression state."""

    path: Path  # real filesystem location
    logical_path: str  # scope-pragma-resolved path rules match against
    tree: ast.AST
    text: str
    lines: list[str]
    #: line number -> rule IDs disabled on that line
    line_disables: dict[int, set[str]] = field(default_factory=dict)
    #: rule IDs disabled for the whole file
    file_disables: set[str] = field(default_factory=set)

    def suppresses(self, finding: Finding) -> bool:
        if finding.rule in self.file_disables:
            return True
        return finding.rule in self.line_disables.get(finding.line, set())


def _parse_pragmas(module: ModuleInfo) -> None:
    comments = (
        token for token in
        tokenize.generate_tokens(io.StringIO(module.text).readline)
        if token.type == tokenize.COMMENT
    )
    for token in comments:
        lineno = token.start[0]
        for match in _PRAGMA.finditer(token.string):
            kind, value = match.group(1), match.group(2).strip()
            if kind == "disable":
                ids = {part.strip() for part in value.split(",") if part.strip()}
                module.line_disables.setdefault(lineno, set()).update(ids)
            elif lineno <= HEADER_LINES and kind == "disable-file":
                module.file_disables.update(
                    part.strip() for part in value.split(",") if part.strip()
                )
            elif lineno <= HEADER_LINES and kind == "scope":
                module.logical_path = value


def load_module(path: Path, root: Path | None = None) -> ModuleInfo | Finding:
    """Parse one file; on a syntax error return an RL000 finding instead."""
    text = path.read_text(encoding="utf-8")
    logical = str(path)
    if root is not None:
        try:
            logical = path.relative_to(root).as_posix()
        except ValueError:
            logical = path.as_posix()
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        return Finding(
            PARSE_ERROR_RULE,
            logical,
            error.lineno or 1,
            f"file does not parse: {error.msg}",
        )
    module = ModuleInfo(
        path=path,
        logical_path=logical,
        tree=tree,
        text=text,
        lines=text.splitlines(),
    )
    _parse_pragmas(module)
    return module


def collect_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise LintError(f"no such file or directory: {raw}")
    # De-duplicate while keeping the order stable.
    seen: set[Path] = set()
    unique = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def collect_modules(
    paths: list[str], root: Path | None = None
) -> tuple[list[ModuleInfo], list[Finding]]:
    """Parse every file under ``paths``; second element is RL000 findings."""
    modules: list[ModuleInfo] = []
    errors: list[Finding] = []
    for path in collect_files(paths):
        loaded = load_module(path, root=root)
        if isinstance(loaded, Finding):
            errors.append(loaded)
        else:
            modules.append(loaded)
    return modules, errors


def run_lint(
    paths: list[str],
    rules: list[Rule] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """All unsuppressed findings for the given paths, stably ordered."""
    active = list(ALL_RULES) if rules is None else rules
    modules, findings = collect_modules(paths, root=root)
    for module in modules:
        for rule in active:
            for finding in rule.check(module):
                if not module.suppresses(finding):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ------------------------------------------------------------------- CLI


def _resolve_rules(spec: str | None) -> list[Rule]:
    if spec is None:
        return list(ALL_RULES)
    rules = []
    for rule_id in (part.strip() for part in spec.split(",")):
        if rule_id not in RULES_BY_ID:
            raise LintError(
                f"unknown rule {rule_id!r} (have: "
                f"{', '.join(sorted(RULES_BY_ID))})"
            )
        rules.append(RULES_BY_ID[rule_id])
    return rules


def _list_rules() -> str:
    width = max(len(rule.id) for rule in ALL_RULES)
    out = []
    for rule in ALL_RULES:
        out.append(f"{rule.id:<{width}}  {rule.title}")
        out.append(f"{'':<{width}}  {rule.rationale}")
    return "\n".join(out)


def build_parser(parser: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro-tx lint",
            description="Project-specific static analysis for RDF-TX.",
        )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 clean, 1 findings, 2 usage error."""
    return run_cli(build_parser().parse_args(argv))


def run_cli(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        rules = _resolve_rules(args.rules)
        findings = run_lint(args.paths, rules=rules)
    except LintError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(
            {
                "schema_version": JSON_SCHEMA_VERSION,
                "findings": [f.to_dict() for f in findings],
            },
            indent=2,
        ))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"\n{len(findings)} finding(s)")
        else:
            print("clean: no findings")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
