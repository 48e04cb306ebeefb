"""``repro.lint`` — project-specific static analysis.

Generic linters cannot know that ``TemporalStore`` mutations belong under
the write side of a readers-writer lock, that a WAL append must dominate
the in-memory apply, or that MVBT ``te`` fields may only be set by the
dead/split helpers.  This package encodes those invariants as AST rules
(``RL001`` …) and runs them via ``repro-tx lint`` — mechanically, at
review time, instead of in a crash test.

See ``docs/lint_rules.md`` for the rule table and suppression syntax.
"""

from .checker import LintError, ModuleInfo, collect_modules, main, run_lint
from .rules import ALL_RULES, RULES_BY_ID
from .rules.base import Finding, Rule

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintError",
    "ModuleInfo",
    "RULES_BY_ID",
    "Rule",
    "collect_modules",
    "main",
    "run_lint",
]
