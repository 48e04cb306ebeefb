"""RL016: resources that leak when an exception takes the early exit.

Tracks statements that bind a fresh OS resource — a socket, file
handle, pipe end, or subprocess — to a local name, then walks the rest
of the enclosing block.  Between creation and the point the resource is
closed or escapes (returned, stored on an attribute, handed to another
call), any fallible statement is an exception path on which nothing
closes it: the classic

    sock = socket.create_connection(address)
    sock.setsockopt(...)        # raises -> sock is orphaned
    return sock

Safe shapes are recognized structurally: ``with`` blocks, direct
returns, assignment to ``self.attr`` (ownership moves to the object),
and a ``try`` whose handler or ``finally`` closes the name — either
enclosing the creation or immediately guarding the statements after it.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .base import Finding, ImportMap, Rule, call_name, walk_functions

if TYPE_CHECKING:  # pragma: no cover
    from ..checker import ModuleInfo

#: Import-resolved constructors of leakable OS resources.
RESOURCE_QNAMES = frozenset({
    "socket.create_connection", "socket.socket",
    "subprocess.Popen", "os.fdopen",
})

#: Call-name tails accepted when imports cannot resolve the receiver
#: (``ctx.Pipe()`` on a multiprocessing context).
RESOURCE_TAILS = frozenset({
    "Pipe", "create_connection", "Popen", "fdopen",
})

#: Methods that release the resource (or reap the process).
CLEANUP_METHODS = frozenset({
    "close", "terminate", "kill", "shutdown", "release", "join", "wait",
})


class ExceptionPathResourceLeak(Rule):
    """RL016: a socket/file/pipe/process can be orphaned by an exception."""

    id = "RL016"
    title = "resource not closed on exception paths"
    rationale = (
        "A worker socket or pipe orphaned by an exception survives "
        "until process exit; under failover retry loops that is an fd "
        "leak the cluster pays for at the worst time."
    )

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        imports = ImportMap.of(module.tree)
        for fn in walk_functions(module.tree):
            yield from self._scan_body(module, imports, fn.body, [])

    # ------------------------------------------------------------- traversal

    def _scan_body(
        self,
        module: "ModuleInfo",
        imports: ImportMap,
        body: list[ast.stmt],
        enclosing_tries: list[ast.Try],
    ) -> Iterator[Finding]:
        for index, stmt in enumerate(body):
            for name, call in self._creations(imports, stmt):
                yield from self._check_lifetime(
                    module, name, call, body[index + 1:], enclosing_tries
                )
            yield from self._scan_children(
                module, imports, stmt, enclosing_tries
            )

    def _scan_children(
        self, module, imports, stmt, enclosing_tries
    ) -> Iterator[Finding]:
        if isinstance(stmt, ast.Try):
            yield from self._scan_body(
                module, imports, stmt.body, enclosing_tries + [stmt]
            )
            for handler in stmt.handlers:
                yield from self._scan_body(
                    module, imports, handler.body, enclosing_tries
                )
            for sub in (stmt.orelse, stmt.finalbody):
                yield from self._scan_body(
                    module, imports, sub, enclosing_tries
                )
        elif isinstance(stmt, (ast.If, ast.For, ast.While)):
            yield from self._scan_body(
                module, imports, stmt.body, enclosing_tries
            )
            yield from self._scan_body(
                module, imports, stmt.orelse, enclosing_tries
            )
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from self._scan_body(
                module, imports, stmt.body, enclosing_tries
            )

    # -------------------------------------------------------------- creation

    def _creations(
        self, imports: ImportMap, stmt: ast.stmt
    ) -> Iterator[tuple[str, ast.Call]]:
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.value, ast.Call)
            and self._is_resource(imports, stmt.value)
        ):
            return
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            yield (target.id, stmt.value)
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    yield (element.id, stmt.value)

    def _is_resource(self, imports: ImportMap, call: ast.Call) -> bool:
        dotted = call_name(call)
        if dotted is None:
            return False
        if dotted == "open":
            return True
        resolved = imports.resolve_call(call)
        if resolved in RESOURCE_QNAMES:
            return True
        return (
            "." in dotted
            and dotted.rsplit(".", 1)[-1] in RESOURCE_TAILS
        )

    # -------------------------------------------------------------- lifetime

    def _check_lifetime(
        self,
        module: "ModuleInfo",
        name: str,
        call: ast.Call,
        rest: list[ast.stmt],
        enclosing_tries: list[ast.Try],
    ) -> Iterator[Finding]:
        for guard in enclosing_tries:
            if self._try_cleans(guard, name):
                return
        risky: ast.stmt | None = None
        for stmt in rest:
            if isinstance(stmt, ast.Try) and self._try_cleans(stmt, name):
                return
            if self._cleans(stmt, name) or self._escapes(stmt, name):
                if risky is not None:
                    yield self.finding(
                        module, call,
                        f"{name!r} leaks if line {risky.lineno} raises "
                        f"before it is closed or handed off",
                    )
                return
            if risky is None and self._is_fallible(stmt):
                risky = stmt
        if risky is not None:
            yield self.finding(
                module, call,
                f"{name!r} is never closed on the path where line "
                f"{risky.lineno} raises",
            )

    def _try_cleans(self, node: ast.Try, name: str) -> bool:
        if self._block_cleans(node.finalbody, name):
            return True
        return any(
            self._block_cleans(handler.body, name)
            for handler in node.handlers
        )

    def _block_cleans(self, stmts: list[ast.stmt], name: str) -> bool:
        return any(self._cleans(stmt, name) for stmt in stmts)

    def _cleans(self, stmt: ast.stmt, name: str) -> bool:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CLEANUP_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return True
        return False

    def _escapes(self, stmt: ast.stmt, name: str) -> bool:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Return) and node.value is not None:
                if self._mentions(node.value, name):
                    return True
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    if self._mentions(arg, name):
                        return True
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ) and self._mentions(node.value, name):
                    return True
        return False

    def _mentions(self, node: ast.AST, name: str) -> bool:
        return any(
            isinstance(sub, ast.Name) and sub.id == name
            for sub in ast.walk(node)
        )

    def _is_fallible(self, stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Raise):
            return True
        return any(
            isinstance(node, ast.Call) for node in ast.walk(stmt)
        )
