"""Rule plumbing: findings, the rule base class, shared AST helpers."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from ..checker import ModuleInfo


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # the module's logical (scope-resolved) path
    line: int
    message: str
    snippet: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }


class Rule:
    """A single project-specific check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Finding` objects.  Rules never mutate the module and
    never signal through exceptions — an un-parseable file is handled
    before rules run.
    """

    id: str = ""
    title: str = ""
    #: Which RDF-TX invariant the rule protects (shown by ``--list-rules``).
    rationale: str = ""

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: "ModuleInfo", node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        snippet = ""
        if 1 <= line <= len(module.lines):
            snippet = module.lines[line - 1].strip()
        return Finding(self.id, module.logical_path, line, message, snippet)


# --------------------------------------------------------------- AST helpers


def dotted_name(node: ast.AST) -> str | None:
    """Resolve a ``Name``/``Attribute`` chain to ``"a.b.c"`` (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """The dotted name a call targets, e.g. ``self._wal.append``."""
    return dotted_name(node.func)


def decorator_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Final path components of every decorator on ``fn``."""
    names: set[str] = set()
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = dotted_name(target)
        if dotted is not None:
            names.add(dotted.rsplit(".", 1)[-1])
    return names


def walk_functions(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function/method definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def enclosing_function_names(tree: ast.AST) -> dict[int, str]:
    """Map each AST node id to the name of its innermost enclosing function.

    Module-level nodes are absent from the map.
    """
    owner: dict[int, str] = {}

    def visit(node: ast.AST, current: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = node.name
        for child in ast.iter_child_nodes(node):
            if current is not None:
                owner[id(child)] = current
            visit(child, current)

    visit(tree, None)
    return owner


@dataclass
class ImportMap:
    """What the module's import statements bind each local name to."""

    #: local alias -> imported module path (``import x.y as z``)
    modules: dict[str, str] = field(default_factory=dict)
    #: local name -> fully qualified origin (``from x import y``)
    names: dict[str, str] = field(default_factory=dict)

    @classmethod
    def of(cls, tree: ast.AST) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    imports.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import: origin is project-local
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports.names[local] = f"{node.module}.{alias.name}"
        return imports

    def resolve_call(self, node: ast.Call) -> str | None:
        """Fully qualified name of the called function, where imports
        make that decidable (``_time.time`` -> ``time.time``)."""
        dotted = call_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if not rest:
            return self.names.get(head, None)
        if head in self.modules:
            return f"{self.modules[head]}.{rest}"
        if head in self.names:
            return f"{self.names[head]}.{rest}"
        return None


def path_matches(logical_path: str, suffixes: Iterable[str]) -> bool:
    """Whether ``logical_path`` ends with any of the given path suffixes."""
    normalized = logical_path.replace("\\", "/")
    return any(normalized.endswith(suffix) for suffix in suffixes)


def has_path_segment(logical_path: str, segment: str) -> bool:
    """Whether ``segment`` appears as a whole directory name in the path."""
    parts = logical_path.replace("\\", "/").split("/")
    return segment in parts[:-1]
