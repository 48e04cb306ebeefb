"""Project-wide call graph for the interprocedural lint rules.

The per-module rules (RL001–RL010) see one AST at a time; the
concurrency rules (RL013+) need to know what a call *reaches* two or
three frames down, across module boundaries.  :class:`ProjectIndex`
builds that view from the already-parsed module set:

* **module naming** — logical paths (``src/repro/cluster/worker.py``)
  become dotted module names (``repro.cluster.worker``), so relative
  imports (``from ..obs import log as _obslog``) resolve to project
  modules.
* **definition index** — every module-level function and every class
  method gets a qualified name (``repro.service.store.TemporalStore._update``).
* **type seeds** — ``self.X = ClassName(...)`` assignments (and
  annotated ``self.X: ClassName = ...``) type instance attributes;
  ``NAME = ClassName(...)`` at module level types module singletons.
* **call resolution** — ``self.m()``, ``self.attr.m()``, ``f()``,
  ``mod.f()``, ``mod.OBJ.m()`` and from-imported functions resolve
  through the index; as a last resort an attribute call resolves to a
  method whose name is defined by exactly one project class and does
  not collide with a builtin container/primitive method name.

Resolution is deliberately *under*-approximate: an unresolvable call is
simply absent from the graph, so interprocedural rules err toward
silence rather than noise.
"""

from __future__ import annotations

import ast
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from .rules.base import call_name, decorator_names, dotted_name

if TYPE_CHECKING:  # pragma: no cover
    from .checker import ModuleInfo

#: Method names never resolved via the unique-name fallback: they are
#: overwhelmingly likely to be list/dict/str/socket/thread operations on
#: objects the index knows nothing about.
_GENERIC_METHODS = frozenset(
    name
    for obj in (list, dict, set, frozenset, str, bytes, tuple)
    for name in dir(obj)
) | frozenset({
    "acquire", "release", "locked", "wait", "notify", "notify_all",
    "start", "run", "join", "is_alive", "terminate", "kill", "cancel",
    "result", "submit", "shutdown", "poll", "send", "recv", "close",
    "open", "read", "write", "readline", "flush", "fileno", "settimeout",
    "setsockopt", "put", "get", "set", "inc", "observe", "info",
    "warning", "error", "debug", "exists", "mkdir", "unlink",
})


def module_name(logical_path: str) -> str:
    """Dotted module name for a logical path.

    ``src/repro/cluster/worker.py`` -> ``repro.cluster.worker``; files
    outside a recognizable package root (test fixtures) collapse to
    their stem, which keeps single-file lint runs self-contained.
    """
    parts = logical_path.replace("\\", "/").split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    return ".".join(parts) if parts else "<root>"


@dataclass
class CallSite:
    """One call expression inside a function."""

    node: ast.Call
    dotted: str | None  # syntactic name, e.g. ``self._rpc_primary``
    absolute: str | None  # import-resolved name, e.g. ``time.sleep``
    target: str | None  # qualified name of the resolved project callee


@dataclass
class FunctionInfo:
    """One module-level function or class method."""

    qname: str
    modname: str
    module: "ModuleInfo"
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    decorators: set[str] = field(default_factory=set)
    calls: list[CallSite] = field(default_factory=list)


class ProjectIndex:
    """Definitions, imports, and the resolved call graph of a module set."""

    def __init__(self, modules: list["ModuleInfo"]) -> None:
        self.modules = list(modules)
        self.functions: dict[str, FunctionInfo] = {}
        self._module_of: dict[str, "ModuleInfo"] = {}
        self._module_funcs: dict[str, dict[str, str]] = {}
        self._classes: dict[str, dict[str, dict[str, str]]] = {}
        self._bindings: dict[str, dict[str, str]] = {}
        self._instance_vars: dict[str, dict[str, tuple[str, str]]] = {}
        self._attr_types: dict[tuple[str, str], dict[str, tuple[str, str]]] = {}
        self._method_index: dict[str, list[str]] = {}
        self._collect_definitions()
        self._collect_bindings()
        self._collect_types()
        self._resolve_all_calls()

    # -------------------------------------------------------------- building

    def _collect_definitions(self) -> None:
        for module in self.modules:
            modname = module_name(module.logical_path)
            self._module_of[modname] = module
            funcs = self._module_funcs.setdefault(modname, {})
            classes = self._classes.setdefault(modname, {})
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._register(module, modname, None, node)
                    funcs[node.name] = f"{modname}.{node.name}"
                elif isinstance(node, ast.ClassDef):
                    methods = classes.setdefault(node.name, {})
                    for sub in node.body:
                        if isinstance(
                            sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            self._register(module, modname, node.name, sub)
                            methods[sub.name] = (
                                f"{modname}.{node.name}.{sub.name}"
                            )
                            self._method_index.setdefault(
                                sub.name, []
                            ).append(f"{modname}.{node.name}.{sub.name}")

    def _register(
        self,
        module: "ModuleInfo",
        modname: str,
        cls: str | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        qname = (
            f"{modname}.{cls}.{node.name}" if cls else f"{modname}.{node.name}"
        )
        self.functions[qname] = FunctionInfo(
            qname=qname,
            modname=modname,
            module=module,
            cls=cls,
            node=node,
            decorators=decorator_names(node),
        )

    def _collect_bindings(self) -> None:
        """Local name -> dotted import target, relative imports included."""
        for modname, module in self._module_of.items():
            binds = self._bindings.setdefault(modname, {})
            pkg_parts = modname.split(".")
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        binds[local] = (
                            alias.name if alias.asname else local
                        )
                elif isinstance(node, ast.ImportFrom):
                    if node.level:
                        base = pkg_parts[: len(pkg_parts) - node.level]
                    else:
                        base = []
                    if node.module:
                        base = base + node.module.split(".")
                    elif not node.level:
                        continue
                    for alias in node.names:
                        local = alias.asname or alias.name
                        binds[local] = ".".join(base + [alias.name])

    def _collect_types(self) -> None:
        for modname, module in self._module_of.items():
            instances = self._instance_vars.setdefault(modname, {})
            for node in module.tree.body:
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call
                ):
                    owner = self._class_of_call(modname, node.value)
                    if owner is None:
                        continue
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            instances[target.id] = owner
            for cls_node in module.tree.body:
                if isinstance(cls_node, ast.ClassDef):
                    self._collect_attr_types(modname, cls_node)

    def _collect_attr_types(self, modname: str, cls_node: ast.ClassDef) -> None:
        attrs = self._attr_types.setdefault((modname, cls_node.name), {})
        for node in ast.walk(cls_node):
            target = None
            owner = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(node.value, ast.Call):
                    owner = self._class_of_call(modname, node.value)
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                annotated = dotted_name(node.annotation)
                if annotated is not None:
                    owner = self._resolve_class(modname, annotated)
            if owner is None or target is None:
                continue
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs[target.attr] = owner

    def _class_of_call(
        self, modname: str, call: ast.Call
    ) -> tuple[str, str] | None:
        dotted = call_name(call)
        if dotted is None:
            return None
        return self._resolve_class(modname, dotted)

    def _resolve_class(
        self, modname: str, dotted: str
    ) -> tuple[str, str] | None:
        parts = dotted.split(".")
        classes = self._classes
        if len(parts) == 1:
            if parts[0] in classes.get(modname, {}):
                return (modname, parts[0])
            target = self._bindings.get(modname, {}).get(parts[0])
            if target:
                tmod, _, tcls = target.rpartition(".")
                if tcls in classes.get(tmod, {}):
                    return (tmod, tcls)
        elif len(parts) == 2:
            target = self._bindings.get(modname, {}).get(parts[0])
            if target and parts[1] in classes.get(target, {}):
                return (target, parts[1])
        return None

    # ------------------------------------------------------------ resolution

    def _resolve_all_calls(self) -> None:
        for info in self.functions.values():
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    dotted = call_name(node)
                    info.calls.append(CallSite(
                        node=node,
                        dotted=dotted,
                        absolute=self._absolute(info.modname, dotted),
                        target=self._resolve(info, dotted),
                    ))

    def _absolute(self, modname: str, dotted: str | None) -> str | None:
        """Import-resolved name (``_time.sleep`` -> ``time.sleep``)."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self._bindings.get(modname, {}).get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def _resolve(self, info: FunctionInfo, dotted: str | None) -> str | None:
        if dotted is None:
            return None
        parts = dotted.split(".")
        modname = info.modname
        if parts[0] == "self" and info.cls is not None:
            if len(parts) == 2:
                qname = (
                    self._classes.get(modname, {})
                    .get(info.cls, {})
                    .get(parts[1])
                )
                return qname or self._unique_method(parts[1])
            if len(parts) == 3:
                owner = self._attr_types.get(
                    (modname, info.cls), {}
                ).get(parts[1])
                if owner is not None:
                    qname = (
                        self._classes.get(owner[0], {})
                        .get(owner[1], {})
                        .get(parts[2])
                    )
                    if qname:
                        return qname
                return self._unique_method(parts[2])
            return None
        if len(parts) == 1:
            qname = self._module_funcs.get(modname, {}).get(parts[0])
            if qname:
                return qname
            target = self._bindings.get(modname, {}).get(parts[0])
            if target:
                tmod, _, fname = target.rpartition(".")
                return self._module_funcs.get(tmod, {}).get(fname)
            return None
        target = self._bindings.get(modname, {}).get(parts[0])
        if target is not None and target in self._module_of:
            if len(parts) == 2:
                return self._module_funcs.get(target, {}).get(parts[1])
            if len(parts) == 3:
                owner = self._instance_vars.get(target, {}).get(parts[1])
                if owner is not None:
                    return (
                        self._classes.get(owner[0], {})
                        .get(owner[1], {})
                        .get(parts[2])
                    )
                return (
                    self._classes.get(target, {})
                    .get(parts[1], {})
                    .get(parts[2])
                )
            return None
        if len(parts) == 2:
            owner = self._instance_vars.get(modname, {}).get(parts[0])
            if owner is not None:
                qname = (
                    self._classes.get(owner[0], {})
                    .get(owner[1], {})
                    .get(parts[1])
                )
                if qname:
                    return qname
        return self._unique_method(parts[-1])

    def _unique_method(self, name: str) -> str | None:
        """Fallback: a method name defined by exactly one project class."""
        if name in _GENERIC_METHODS:
            return None
        candidates = self._method_index.get(name)
        if candidates is not None and len(candidates) == 1:
            return candidates[0]
        return None

    # --------------------------------------------------------------- queries

    def function_at(self, qname: str) -> FunctionInfo | None:
        return self.functions.get(qname)

    def functions_of(self, module: "ModuleInfo") -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if info.module is module:
                yield info

    def callsites_in(
        self, info: FunctionInfo, root: ast.AST
    ) -> Iterator[CallSite]:
        """The function's call sites lexically inside ``root``."""
        inside = {id(node) for node in ast.walk(root)}
        for site in info.calls:
            if id(site.node) in inside:
                yield site


#: One index per distinct module set, shared by every interprocedural
#: rule in a single ``run_lint`` invocation (the checker clears it).
_INDEX_LOCK = threading.Lock()
_INDEX_CACHE: dict[tuple[int, ...], ProjectIndex] = {}


def project_index(modules: list["ModuleInfo"]) -> ProjectIndex:
    key = tuple(sorted(id(module) for module in modules))
    with _INDEX_LOCK:
        index = _INDEX_CACHE.get(key)
        if index is None:
            index = ProjectIndex(modules)
            _INDEX_CACHE.clear()
            _INDEX_CACHE[key] = index
        return index
