"""Durability-ordering rule (RL003).

RDF-TX's crash-safety story is log-before-apply: once
``WriteAheadLog.append`` returns, the update survives a process kill, and
recovery replays exactly the acknowledged records.  Applying to the
in-memory engine *before* (or without) the append silently narrows that
guarantee — an acknowledged update could vanish on restart.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .base import Finding, Rule, call_name, decorator_names
from .locks import MARKER

if TYPE_CHECKING:  # pragma: no cover
    from ..checker import ModuleInfo

#: Calls that apply an update to the in-memory engine.
APPLY_CALLS = frozenset({
    "self._apply", "self.engine.insert", "self.engine.delete",
    "self.engine.apply_update",
})


class WalBeforeApply(Rule):
    """RL003: every in-memory apply must be dominated by its WAL append."""

    id = "RL003"
    title = "in-memory apply not preceded by a WAL append"
    rationale = (
        "Log-before-apply is the recovery contract: a record must be in "
        "the WAL before the engine reflects it, or a crash between the "
        "two loses an acknowledged update.  Methods whose appends happen "
        "upstream declare it with @requires_writer_lock (replay/apply "
        "helpers re-applying already-logged records)."
    )

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef) and self._has_wal(cls):
                yield from self._check_class(module, cls)

    @staticmethod
    def _has_wal(cls: ast.ClassDef) -> bool:
        """Whether ``__init__`` assigns ``self._wal`` (a logging store)."""
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "_wal"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
        return False

    def _check_class(
        self, module: "ModuleInfo", cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name == "__init__" or MARKER in decorator_names(fn):
                continue
            append_lines: list[int] = []
            applies: list[tuple[int, str]] = []
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                dotted = call_name(node)
                if dotted is None:
                    continue
                if dotted == "self._wal.append":
                    append_lines.append(node.lineno)
                elif dotted in APPLY_CALLS:
                    applies.append((node.lineno, dotted))
            if not applies:
                continue
            if not append_lines:
                for line, dotted in applies:
                    yield Finding(
                        self.id, module.logical_path, line,
                        f"`{dotted}` applies an update with no WAL append "
                        f"in `{fn.name}` (mark @requires_writer_lock if "
                        f"the record is already logged upstream)",
                        module.lines[line - 1].strip()
                        if line <= len(module.lines) else "",
                    )
                continue
            first_append = min(append_lines)
            for line, dotted in applies:
                if line < first_append:
                    yield Finding(
                        self.id, module.logical_path, line,
                        f"`{dotted}` runs before the WAL append at line "
                        f"{first_append} — log-before-apply is violated",
                        module.lines[line - 1].strip()
                        if line <= len(module.lines) else "",
                    )
