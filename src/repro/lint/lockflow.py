"""Lock-flow dataflow over the project call graph.

Two analyses share this module:

* **blocking reachability** (RL013) — can a call transitively reach a
  blocking primitive (``time.sleep``, socket/file I/O, subprocess,
  WAL fsync)?  Resolution follows :class:`~repro.lint.callgraph.ProjectIndex`
  edges only, so the answer is an under-approximation with a concrete
  witness chain.
* **lock acquisition order** (RL014) — which locks does each function
  acquire, directly and transitively, and in what order?  Lock objects
  are discovered from ``self.X = threading.Lock()``-style assignments in
  the tracked concurrency modules; acquisitions are ``with`` blocks over
  lock attributes, ``read_locked()``/``write_locked()`` guards, and
  explicit ``.acquire()`` calls (which hold for the rest of the
  function, matching ``TemporalStore._update``'s try/finally idiom).

``flush``/``sync`` are deliberately *not* in the blocking set: the
structured logger flushes its stream on every record, and flagging every
log call under a lock would bury the real findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .callgraph import CallSite, FunctionInfo, ProjectIndex
from .rules.base import dotted_name

if TYPE_CHECKING:  # pragma: no cover
    from .checker import ModuleInfo

#: Attribute tails treated as blocking when the receiver is unresolved.
BLOCKING_TAILS = frozenset({
    "fsync", "fdatasync", "sleep", "recv", "recv_into", "recvfrom",
    "sendall", "sendto", "accept", "connect", "urlopen", "select", "open",
})

#: Import-resolved names that always block.
BLOCKING_QNAMES = frozenset({
    "time.sleep", "os.fsync", "os.fdatasync", "select.select",
    "socket.create_connection", "subprocess.run", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "urllib.request.urlopen", "shutil.copyfile", "shutil.copytree",
})

BLOCKING_BUILTINS = frozenset({"open", "input"})

#: ``with`` guards that take the store's ReadWriteLock.
RW_GUARDS = frozenset({"read_locked", "write_locked"})

#: Calls whose result is a lock object when assigned to ``self.X``.
LOCK_FACTORY_TAILS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "ReadWriteLock", "sanitized_lock",
})

#: Where lock attributes participate in the acquisition graph: two
#: service files and every module of the cluster package.
TRACKED_MODULES = ("service/locks.py", "service/store.py", "cluster/")


def _tracked(logical_path: str) -> bool:
    path = "/" + logical_path.replace("\\", "/")
    return any(f"/{entry}" in path for entry in TRACKED_MODULES)


def direct_blocking(site: CallSite) -> str | None:
    """Why this call site blocks, or None if it does not."""
    if site.dotted in BLOCKING_BUILTINS:
        return f"builtin {site.dotted}()"
    if site.absolute in BLOCKING_QNAMES:
        return f"{site.absolute}()"
    if site.target is None and site.dotted is not None:
        tail = site.dotted.rsplit(".", 1)[-1]
        if tail in BLOCKING_TAILS:
            return f"{site.dotted}()"
    return None


class BlockingReach:
    """Memoized can-this-function-block query over the call graph."""

    def __init__(self, index: ProjectIndex) -> None:
        self._index = index
        self._memo: dict[str, tuple[str, tuple[str, ...]] | None] = {}

    def reach(self, qname: str) -> tuple[str, tuple[str, ...]] | None:
        """``(blocking_desc, callee_chain)`` if ``qname`` can block."""
        return self._reach(qname, set())

    def _reach(
        self, qname: str, stack: set[str]
    ) -> tuple[str, tuple[str, ...]] | None:
        if qname in self._memo:
            return self._memo[qname]
        if qname in stack:
            return None  # recursion: already being explored
        info = self._index.function_at(qname)
        if info is None:
            return None
        stack.add(qname)
        result: tuple[str, tuple[str, ...]] | None = None
        for site in info.calls:
            desc = direct_blocking(site)
            if desc is not None:
                result = (desc, ())
                break
            if site.target is not None:
                sub = self._reach(site.target, stack)
                if sub is not None:
                    result = (sub[0], (site.target,) + sub[1])
                    break
        stack.discard(qname)
        self._memo[qname] = result
        return result


# ------------------------------------------------------------ lock ordering


@dataclass(frozen=True)
class LockId:
    """One lock attribute, identified by its owning class."""

    owner: str  # e.g. ``repro.cluster.coordinator.ClusterStore``
    attr: str

    @property
    def label(self) -> str:
        return f"{self.owner.rsplit('.', 1)[-1]}.{self.attr}"


@dataclass
class Acquisition:
    """One place a function takes a lock.

    ``body`` is the guarded statement list for ``with`` acquisitions;
    ``None`` means an explicit ``.acquire()`` call whose region is the
    rest of the function (release happens in a ``finally``).
    """

    lock: LockId
    node: ast.AST
    body: list[ast.stmt] | None
    order: int  # position among the with-items of one ``with`` statement


@dataclass
class Witness:
    """Where an ordering edge was observed."""

    module: "ModuleInfo"
    line: int
    detail: str  # ``f`` for a direct nesting, ``f -> g -> h`` via calls


class LockFlow:
    """Lock discovery, per-function acquisitions, and the order graph."""

    def __init__(self, index: ProjectIndex) -> None:
        self._index = index
        self._by_attr: dict[str, list[LockId]] = {}
        self._owned: set[LockId] = set()
        self._acq_memo: dict[str, list[Acquisition]] = {}
        self._closure_memo: dict[str, dict[LockId, tuple[str, ...]]] = {}
        self._discover_locks()

    def _discover_locks(self) -> None:
        for info in self._index.functions.values():
            if info.cls is None or not _tracked(info.module.logical_path):
                continue
            owner = f"{info.modname}.{info.cls}"
            for node in ast.walk(info.node):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                callee = dotted_name(node.value.func)
                if (
                    callee is None
                    or callee.rsplit(".", 1)[-1] not in LOCK_FACTORY_TAILS
                ):
                    continue
                target = node.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    lock = LockId(owner=owner, attr=target.attr)
                    if lock not in self._owned:
                        self._owned.add(lock)
                        self._by_attr.setdefault(target.attr, []).append(lock)

    @property
    def locks(self) -> set[LockId]:
        return set(self._owned)

    def _resolve_lock(
        self, info: FunctionInfo, dotted: str
    ) -> LockId | None:
        parts = dotted.split(".")
        attr = parts[-1]
        if parts[0] == "self" and len(parts) == 2 and info.cls is not None:
            lock = LockId(owner=f"{info.modname}.{info.cls}", attr=attr)
            if lock in self._owned:
                return lock
        candidates = self._by_attr.get(attr, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def acquisitions(self, info: FunctionInfo) -> list[Acquisition]:
        cached = self._acq_memo.get(info.qname)
        if cached is not None:
            return cached
        found: list[Acquisition] = []
        for node in ast.walk(info.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for order, item in enumerate(node.items):
                    lock = self._lock_of_with_item(info, item.context_expr)
                    if lock is not None:
                        found.append(Acquisition(
                            lock=lock, node=node, body=node.body, order=order,
                        ))
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None or not dotted.endswith(".acquire"):
                    continue
                lock = self._resolve_lock(info, dotted[: -len(".acquire")])
                if lock is not None:
                    found.append(Acquisition(
                        lock=lock, node=node, body=None, order=0,
                    ))
        self._acq_memo[info.qname] = found
        return found

    def _lock_of_with_item(
        self, info: FunctionInfo, expr: ast.AST
    ) -> LockId | None:
        if isinstance(expr, ast.Call):
            dotted = dotted_name(expr.func)
            if dotted is None:
                return None
            head, _, tail = dotted.rpartition(".")
            if tail in RW_GUARDS and head:
                return self._resolve_lock(info, head)
            return None
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        return self._resolve_lock(info, dotted)

    def closure_acquires(self, qname: str) -> dict[LockId, tuple[str, ...]]:
        """Locks ``qname`` may take, mapped to a witness callee chain."""
        return self._closure(qname, set())

    def _closure(
        self, qname: str, stack: set[str]
    ) -> dict[LockId, tuple[str, ...]]:
        if qname in self._closure_memo:
            return self._closure_memo[qname]
        if qname in stack:
            return {}
        info = self._index.function_at(qname)
        if info is None:
            return {}
        stack.add(qname)
        acquired: dict[LockId, tuple[str, ...]] = {}
        for acq in self.acquisitions(info):
            acquired.setdefault(acq.lock, (qname,))
        for site in info.calls:
            if site.target is None:
                continue
            for lock, chain in self._closure(site.target, stack).items():
                acquired.setdefault(lock, (qname,) + chain)
        stack.discard(qname)
        self._closure_memo[qname] = acquired
        return acquired

    # ------------------------------------------------------------ the graph

    def order_edges(self) -> dict[LockId, dict[LockId, Witness]]:
        """Directed ``A -> B`` edges: B is acquired while A is held."""
        edges: dict[LockId, dict[LockId, Witness]] = {}

        def add(a: LockId, b: LockId, witness: Witness) -> None:
            if a != b:
                edges.setdefault(a, {}).setdefault(b, witness)

        for info in self._index.functions.values():
            acqs = self.acquisitions(info)
            if not acqs:
                continue
            for acq in acqs:
                region = self._region_ids(info, acq)
                for other in acqs:
                    if other is acq:
                        continue
                    nested = id(other.node) in region or (
                        other.node is acq.node and other.order > acq.order
                    )
                    if nested:
                        add(acq.lock, other.lock, Witness(
                            module=info.module,
                            line=getattr(other.node, "lineno", 1),
                            detail=info.qname,
                        ))
                for site in info.calls:
                    if site.target is None or id(site.node) not in region:
                        continue
                    transitive = self._closure(site.target, {info.qname})
                    for lock, chain in transitive.items():
                        add(acq.lock, lock, Witness(
                            module=info.module,
                            line=getattr(site.node, "lineno", 1),
                            detail=" -> ".join((info.qname,) + chain),
                        ))
        return edges

    def _region_ids(self, info: FunctionInfo, acq: Acquisition) -> set[int]:
        """ids() of every AST node guarded by the acquisition."""
        if acq.body is not None:
            return {
                id(node)
                for stmt in acq.body
                for node in ast.walk(stmt)
            }
        start = getattr(acq.node, "lineno", 0)
        return {
            id(node)
            for node in ast.walk(info.node)
            if getattr(node, "lineno", 0) > start
        }


def find_cycles(
    edges: dict[LockId, dict[LockId, Witness]]
) -> Iterator[list[LockId]]:
    """Every elementary cycle in the order graph, deduplicated by
    rotation (each cycle is reported starting from its smallest node)."""
    seen: set[tuple[LockId, ...]] = set()
    for start in sorted(edges, key=lambda lock: lock.label):
        path: list[LockId] = []
        on_path: set[LockId] = set()

        def visit(node: LockId) -> Iterator[list[LockId]]:
            if node in on_path:
                cycle = path[path.index(node):]
                smallest = min(range(len(cycle)), key=lambda i: cycle[i].label)
                canon = tuple(cycle[smallest:] + cycle[:smallest])
                if canon not in seen:
                    seen.add(canon)
                    yield list(canon)
                return
            path.append(node)
            on_path.add(node)
            for nxt in sorted(edges.get(node, {}), key=lambda lock: lock.label):
                yield from visit(nxt)
            path.pop()
            on_path.discard(node)

        yield from visit(start)
