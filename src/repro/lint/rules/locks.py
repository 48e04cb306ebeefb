"""Lock-discipline rules (RL001, RL002).

The serving layer's correctness contract: the in-memory engine is only
mutated while the write side of the store's readers-writer lock is held,
and nothing blocking (disk syncs, sleeps, socket I/O) runs *while* the RW
lock is held — readers drain behind a waiting writer, so one blocked
writer stalls the whole query stream.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .base import Finding, Rule, call_name, decorator_names

if TYPE_CHECKING:  # pragma: no cover
    from ..checker import ModuleInfo

#: Callable names that block on I/O or time while holding a lock.
BLOCKING_ATTRS = frozenset({
    "fsync", "fdatasync", "sleep", "sync", "flush",
    "recv", "recv_into", "sendall", "accept", "connect",
    "urlopen", "select",
})

#: Builtins that block on the outside world.
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Context-manager method names that mean "the RW lock is held inside".
RW_GUARDS = frozenset({"write_locked", "read_locked"})

#: ``self.engine`` methods that mutate multiversion state.
MUTATING_ENGINE_CALLS = frozenset({"insert", "delete", "apply_update", "load"})

#: ``self.<attr>`` assignments that change the reader-visible store state.
GUARDED_ATTRS = frozenset({"engine", "_revision"})

MARKER = "requires_writer_lock"


def _with_guards(node: ast.With | ast.AsyncWith) -> set[str]:
    """The RW-lock guard methods entered by this ``with`` statement."""
    guards: set[str] = set()
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            dotted = call_name(expr)
            if dotted is not None:
                tail = dotted.rsplit(".", 1)[-1]
                if tail in RW_GUARDS:
                    guards.add(tail)
    return guards


class BlockingUnderLock(Rule):
    """RL001: no blocking call while the RW lock is held."""

    id = "RL001"
    title = "blocking call while holding the readers-writer lock"
    rationale = (
        "A writer holding the RW lock stalls every queued reader; an fsync "
        "or sleep inside write_locked() turns one slow disk into a full "
        "service stall.  The WAL append belongs before the lock, the "
        "checkpoint fsync under the writer mutex only."
    )

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not _with_guards(node):
                continue
            for stmt in node.body:
                yield from self._scan(module, stmt)

    def _scan(self, module: "ModuleInfo", node: ast.AST) -> Iterator[Finding]:
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            dotted = call_name(inner)
            if dotted is None:
                continue
            tail = dotted.rsplit(".", 1)[-1]
            if tail in BLOCKING_ATTRS or dotted in BLOCKING_BUILTINS:
                yield self.finding(
                    module, inner,
                    f"blocking call `{dotted}` inside a "
                    f"read_locked()/write_locked() block",
                )


class UnguardedStateMutation(Rule):
    """RL002: store-state mutations must hold the write lock (or be
    explicitly marked ``@requires_writer_lock``)."""

    id = "RL002"
    title = "engine/state mutation outside write_locked()"
    rationale = (
        "Readers are pinned to a revision only because every mutation of "
        "the engine happens under the write side of the RW lock; one "
        "unguarded mutation lets a concurrent reader observe a half-"
        "applied MVBT structure change."
    )

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef) and self._has_rw_lock(cls):
                yield from self._check_class(module, cls)

    @staticmethod
    def _has_rw_lock(cls: ast.ClassDef) -> bool:
        """Whether ``__init__`` assigns ``self._rw`` (the guarded lock)."""
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "_rw"
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
            if fn.name == "__init__":
                continue  # the constructor owns the un-shared object
            if MARKER in decorator_names(fn):
                continue
            for stmt in fn.body:
                yield from self._visit(module, stmt)

    def _visit(self, module: "ModuleInfo", node: ast.AST) -> Iterator[Finding]:
        """Check ``node`` and descend, stopping at write_locked() bodies
        (everything inside them is guarded by definition)."""
        if isinstance(node, (ast.With, ast.AsyncWith)):
            guarded = "write_locked" in _with_guards(node)
            for item in node.items:
                yield from self._visit(module, item.context_expr)
            if not guarded:
                for stmt in node.body:
                    yield from self._visit(module, stmt)
            return
        yield from self._check_node(module, node)
        for child in ast.iter_child_nodes(node):
            yield from self._visit(module, child)

    def _check_node(
        self, module: "ModuleInfo", node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attr = self._self_attr(target)
                if attr in GUARDED_ATTRS:
                    yield self.finding(
                        module, node,
                        f"assignment to `self.{attr}` outside "
                        f"write_locked() (mark the method "
                        f"@requires_writer_lock if every caller holds it)",
                    )
        elif isinstance(node, ast.Call):
            dotted = call_name(node)
            if dotted is not None and dotted.startswith("self.engine."):
                method = dotted.rsplit(".", 1)[-1]
                if method in MUTATING_ENGINE_CALLS:
                    yield self.finding(
                        module, node,
                        f"`{dotted}` mutates multiversion state outside "
                        f"write_locked()",
                    )

    @staticmethod
    def _self_attr(target: ast.AST) -> str | None:
        """``self.X`` or ``self.X.Y...`` -> ``X``; otherwise None."""
        while isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                return target.attr
            target = target.value
        return None
