"""MVBT/CMVSBT structural-invariant rules (RL004, RL005).

The multiversion trees only stay queryable at historical revisions
because dead entries are immutable: an entry's ``end`` (the paper's
``te``) is written exactly once, by the logical-delete helpers, and a
node's ``death`` exactly once, by its ``kill``.  Likewise
the delta-compression byte format has one encoder — ad-hoc header
construction elsewhere would silently desynchronize encode and decode.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .base import (
    Finding,
    Rule,
    dotted_name,
    enclosing_function_names,
    path_matches,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..checker import ModuleInfo

#: Functions allowed to end an entry's lifetime (set ``.end``).
END_SETTERS = frozenset({"end_live", "end_child", "__init__", "copy"})

#: Functions allowed to kill a node (set ``.death``).
DEATH_SETTERS = frozenset({"kill", "shell_from_state", "__init__"})

#: Files allowed to name the compressed-leaf store directly: the codec,
#: its sole consumer, and the package __init__ that re-exports the API.
COMPRESSION_FILES = ("mvbt/compression.py", "mvbt/node.py",
                     "mvbt/__init__.py")

#: Calls whose results are scan/read output the caller must not mutate:
#: compressed leaves hand back frozen decoded tuples (possibly shared by
#: every reader of a hot leaf), and piece lists feed byte-identity
#: comparisons between the packed and decoded scan paths.
PIECE_PRODUCERS = frozenset({
    "entries", "live_entries", "scan_pieces", "scan_leaf_pieces",
})

#: In-place list mutators that would write through a shared decoded
#: tuple/pieces list if called on a producer result.
PIECE_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse",
})


def _is_piece_producer(node: ast.expr) -> bool:
    """Whether ``node`` is a call to one of :data:`PIECE_PRODUCERS`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in PIECE_PRODUCERS
    if isinstance(func, ast.Name):
        return func.id in PIECE_PRODUCERS
    return False


class EntryLifetimeMutation(Rule):
    """RL004: ``.end`` / ``.death`` writes only inside the sanctioned
    dead/split helpers."""

    id = "RL004"
    title = "entry/node lifetime mutated outside the dead/split helpers"
    rationale = (
        "A reader pinned at revision r reconstructs state r from entry "
        "lifetimes; mutating te on an arbitrary code path rewrites "
        "history for every concurrent and future historical query."
    )

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        owners = enclosing_function_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                owner = owners.get(id(node), "<module>")
                if target.attr == "end" and owner not in END_SETTERS:
                    yield self.finding(
                        module, node,
                        f"`.end` (te) assigned in `{owner}` — only the "
                        f"logical-delete helpers "
                        f"({', '.join(sorted(END_SETTERS))}) may end an "
                        f"entry's lifetime",
                    )
                elif target.attr == "death" and owner not in DEATH_SETTERS:
                    yield self.finding(
                        module, node,
                        f"`.death` assigned in `{owner}` — only `kill` "
                        f"may end a node's lifetime",
                    )


class CompressionEncapsulation(Rule):
    """RL005: compressed-leaf headers/buffers only through compression.py,
    and scan output (entries/pieces) treated as read-only by callers."""

    id = "RL005"
    title = "compressed-leaf store accessed outside its owners"
    rationale = (
        "The delta format (Section 4.2 headers) has exactly one encoder "
        "and one decoder; constructing stores or poking `._buf` anywhere "
        "else lets the byte layout drift between writer and reader.  "
        "Scan results are shared: hot compressed leaves hand every "
        "reader the same frozen decoded tuple, so mutating what "
        "`entries()`/`scan_pieces()` return corrupts other readers."
    )

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        if path_matches(module.logical_path, COMPRESSION_FILES):
            return
        yield from self._scope_mutations(module, module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if any(
                    alias.name == "CompressedLeafStore"
                    for alias in node.names
                ):
                    yield self.finding(
                        module, node,
                        "`CompressedLeafStore` imported outside "
                        "mvbt/compression.py + mvbt/node.py — go through "
                        "LeafNode.compress()/decompress()",
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is not None and (
                    dotted == "CompressedLeafStore"
                    or dotted.endswith(".CompressedLeafStore")
                    or dotted.endswith("CompressedLeafStore.from_state")
                ):
                    yield self.finding(
                        module, node,
                        f"`{dotted}` constructs a compressed leaf store "
                        f"outside its owning modules",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "_buf":
                yield self.finding(
                    module, node,
                    "direct `._buf` access outside mvbt/compression.py — "
                    "the buffer layout is private to the codec",
                )

    def _scope_mutations(
        self, module: "ModuleInfo", scope: ast.AST
    ) -> Iterator[Finding]:
        """Findings for in-place mutation of scan output within ``scope``.

        Tracks, per function scope and in source order, names bound
        directly from a :data:`PIECE_PRODUCERS` call; a tracked name is
        released when rebound to anything else (``rows = list(pieces)``
        makes a private copy the caller may mutate freely).  Flags both
        mutator calls on tracked names and on producer results directly
        (``leaf.entries().sort()``), plus subscript writes.
        """
        tracked: set[str] = set()
        body = getattr(scope, "body", [])
        for finding in self._walk_statements(module, body, tracked):
            yield finding

    def _walk_statements(
        self, module: "ModuleInfo", body: list, tracked: set[str]
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # Fresh scope: bindings do not leak across functions.
                yield from self._walk_statements(module, stmt.body, set())
                continue
            nested = [
                block
                for field in (
                    "body", "orelse", "finalbody",
                )
                for block in [getattr(stmt, field, None)]
                if block
            ] + [h.body for h in getattr(stmt, "handlers", [])]
            if nested:
                # Compound statement: check only its header expressions
                # here; bodies are recursed into with the same bindings.
                headers = [
                    expr
                    for field in ("test", "iter", "subject")
                    for expr in [getattr(stmt, field, None)]
                    if expr is not None
                ] + [item.context_expr for item in getattr(stmt, "items", [])]
                for expr in headers:
                    yield from self._check_expression(module, expr, tracked)
                for block in nested:
                    yield from self._walk_statements(module, block, tracked)
                continue
            yield from self._check_expression(module, stmt, tracked)
            # Binding updates come after the checks, so a self-rebind like
            # `pieces = list(pieces)` is released only from here on.
            if isinstance(stmt, ast.Assign):
                names = [
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                ]
                if _is_piece_producer(stmt.value):
                    tracked.update(names)
                else:
                    tracked.difference_update(names)

    def _check_expression(
        self, module: "ModuleInfo", root: ast.AST, tracked: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(root):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr in PIECE_MUTATORS:
                base = node.func.value
                if _is_piece_producer(base):
                    yield self.finding(
                        module, node,
                        f"`.{node.func.attr}()` mutates a scan result in "
                        f"place — entries()/scan pieces are shared "
                        f"read-only views; copy before mutating",
                    )
                elif isinstance(base, ast.Name) and base.id in tracked:
                    yield self.finding(
                        module, node,
                        f"`{base.id}.{node.func.attr}()` mutates scan "
                        f"output bound from a producer call — copy "
                        f"(`list(...)`) before mutating",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in tracked
                    ):
                        yield self.finding(
                            module, node,
                            f"subscript write into `{target.value.id}` — "
                            f"scan output is a shared read-only view; "
                            f"copy before mutating",
                        )
