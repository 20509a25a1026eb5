"""Interprocedural lock-order analysis over ``src/repro/`` itself.

The repo's concurrency discipline spans four lock families — the
writer-preferring :class:`~repro.rwlock.ReadWriteLock` in the
service tier, one ``ReadWriteLock`` per shard, the
:class:`~repro.shard.wal.ShardWAL`'s reentrant record lock, and the
per-root commit lock of :func:`repro.db.persistence.root_lock` — plus a
handful of short-critical-section mutexes (metrics, event ring, LSN
allocation).  A deadlock needs two of them acquired in opposite orders
on two threads; no dynamic test reliably provokes that, so this pass
proves the *absence of the shape*: it extracts every static
lock-acquisition site, propagates "locks held here" across call edges,
builds the may-hold-while-acquiring graph, and reports its cycles.

Rules (reported through the shared :class:`~repro.analysis.findings`
machinery, suppressible with ``# repro-lint: disable=CCnnn`` pragmas on
the acquisition/IO line):

``CC001`` lock-order cycle (ERROR)
    A cycle in the may-hold-while-acquiring graph, including self-loops
    on non-reentrant locks (acquiring a second instance of the same
    lock class while one is held).  Acquiring the members of a lock
    family in a fixed global order is safe — annotate the site with a
    pragma saying so.
``CC002`` lock held across durable I/O (WARNING)
    An ``fsync`` / ``rename`` / ``replace`` call lexically inside a
    lock-held region.  Durable I/O is milliseconds; holding an
    in-memory lock across it stalls every peer.  The per-root commit
    lock (``db.root_lock``) is exempt — serializing commit renames is
    its entire purpose.

Heuristics (documented, deliberately conservative):

* Lock identity is *classified*, not points-to-analyzed: ``with
  x.read_locked()`` / ``write_locked()`` receivers named ``_rwlock`` /
  ``_service`` map to the service lock, receivers whose final attribute
  is ``lock`` (the sharded catalog's per-shard locks) map to
  ``shard.rwlock``; plain ``with self._lock:`` mutexes are qualified by
  their enclosing class (``ShardWAL._lock``).  Two distinct locks
  merged into one class can only *add* edges — the analysis
  over-approximates, never misses a modeled cycle.
* Calls are resolved by attribute-type tracking (``self._wal =
  ShardWAL(...)`` makes ``self._wal.append()`` resolve to
  ``ShardWAL.append``), by class for ``self.method()``, and by unique
  global name otherwise; collection-method names (``append``, ``get``,
  ...) are never name-resolved.
* ``stack.enter_context(lock...)`` acquisitions are held until function
  end; one inside a loop acquires its class repeatedly and therefore
  forms a self-loop edge.
* ``threading.Condition`` attributes (``_cond``) are skipped — waiting
  releases them, so hold-while-acquiring edges through them are
  meaningless.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.ast_lint import (
    LintRule,
    _as_posix,
    _dotted_name,
    _python_files,
    _suppressions,
)
from repro.analysis.findings import AnalysisReport, Finding, Severity

#: Rules this pass owns (same shape as the AST linter's registry).
CC_RULES: Dict[str, LintRule] = {
    rule.code: rule
    for rule in (
        LintRule(
            code="CC001",
            summary="lock-order cycle (potential deadlock)",
            path_scope="",
            fix_hint=(
                "acquire the involved locks in one global order "
                "everywhere; if a site acquires a lock family in a "
                "fixed order by construction, say so on the line and "
                "add # repro-lint: disable=CC001"
            ),
        ),
        LintRule(
            code="CC002",
            summary="lock held across fsync/rename I/O",
            path_scope="",
            fix_hint=(
                "move the durable I/O outside the critical section, or "
                "justify the pairing (e.g. WAL append-before-apply "
                "requires serialized fsyncs) with "
                "# repro-lint: disable=CC002"
            ),
        ),
    )
}

#: Durable-I/O method names CC002 watches for.
_IO_NAMES: Set[str] = {"fsync", "rename", "replace"}

#: The commit lock exists to serialize durable commits; exempt from CC002.
_COMMIT_LOCKS: Set[str] = {"db.root_lock"}

#: Receiver tails of ``*.read_locked()/write_locked()`` that denote the
#: service tier's one RW lock (an out-of-band writer reaches it via its
#: service handle; the executor owns it as ``_rwlock``).
_SERVICE_RW_TAILS: Set[str] = {"_rwlock", "rwlock", "_service", "service"}

#: Condition-variable attribute names to skip (waiting releases them).
_CONDITION_TAILS: Set[str] = {"_cond", "cond"}

#: Method names never resolved by name alone (collection / stdlib noise).
_COMMON_METHODS: Set[str] = {
    "append", "appendleft", "add", "extend", "insert", "remove", "discard",
    "pop", "popleft", "clear", "update", "get", "setdefault", "items",
    "keys", "values", "copy", "sort", "index", "count", "join", "split",
    "strip", "replace", "encode", "decode", "format", "read", "write",
    "readline", "close", "flush", "open", "seek", "truncate", "exists",
    "is_file", "is_dir", "mkdir", "rmdir", "unlink", "acquire", "release",
    "wait", "notify", "notify_all", "set", "is_set", "submit", "result",
    "cancel", "done", "shutdown", "start", "run", "stop", "put", "emit",
    "describe", "to_dict", "snapshot", "record", "observe", "increment",
    "parse", "serialize", "reset", "entries",
}


# ----------------------------------------------------------------------
# Graph data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LockSite:
    """One place the graph learned an edge (or an acquisition)."""

    path: str
    line: int
    function: str
    holding: str
    acquiring: str
    note: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "function": self.function,
            "holding": self.holding,
            "acquiring": self.acquiring,
            "note": self.note,
        }


@dataclass
class LockGraph:
    """The may-hold-while-acquiring graph over lock classes."""

    #: Lock class -> kind ("rwlock" / "mutex" / "rlock" / "commit").
    nodes: Dict[str, str] = field(default_factory=dict)
    #: (holding, acquiring) -> evidence sites.
    edges: Dict[Tuple[str, str], List[LockSite]] = field(default_factory=dict)
    files_examined: int = 0

    def add_edge(self, site: LockSite) -> None:
        self.edges.setdefault((site.holding, site.acquiring), []).append(site)

    def cycles(self) -> List[Tuple[str, ...]]:
        """Every elementary cycle's node set, as sorted tuples.

        Strongly connected components with more than one node are
        reported whole (any cycle through them is reachable from any
        member); self-loops on reentrant locks are excluded by the
        caller, which knows lock kinds.
        """
        components = _tarjan_scc(
            sorted(self.nodes), sorted(self.edges)
        )
        cycles: List[Tuple[str, ...]] = []
        for component in components:
            if len(component) > 1:
                cycles.append(tuple(sorted(component)))
        for (src, dst) in sorted(self.edges):
            if src == dst:
                cycles.append((src,))
        return cycles

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_examined": self.files_examined,
            "nodes": dict(sorted(self.nodes.items())),
            "edges": [
                {
                    "holding": src,
                    "acquiring": dst,
                    "sites": [
                        site.to_dict()
                        for site in sorted(
                            sites, key=lambda s: (s.path, s.line)
                        )
                    ],
                }
                for (src, dst), sites in sorted(self.edges.items())
            ],
        }


def _tarjan_scc(
    nodes: Sequence[str], edges: Sequence[Tuple[str, str]]
) -> List[List[str]]:
    """Strongly connected components (iterative Tarjan; deterministic)."""
    adjacency: Dict[str, List[str]] = {node: [] for node in nodes}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        adjacency.setdefault(dst, [])
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    def strongconnect(root: str) -> None:
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = adjacency.get(node, [])
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for node in sorted(adjacency):
        if node not in index:
            strongconnect(node)
    return components


# ----------------------------------------------------------------------
# Per-function facts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Acquisition:
    lock: str
    line: int
    held: Tuple[str, ...]
    mode: str  # "read" / "write" / "exclusive"
    in_loop: bool


@dataclass(frozen=True)
class _CallSite:
    kind: str  # "self" / "attr" / "name"
    owner: str  # receiver tail for "attr", "" otherwise
    name: str
    line: int
    held: Tuple[str, ...]


@dataclass(frozen=True)
class _IOSite:
    name: str
    line: int
    held: Tuple[str, ...]


@dataclass
class _FunctionInfo:
    qualname: str
    module: str
    path: str
    class_name: str
    acquisitions: List[_Acquisition] = field(default_factory=list)
    calls: List[_CallSite] = field(default_factory=list)
    io_calls: List[_IOSite] = field(default_factory=list)


@dataclass
class _ScanContext:
    module: str
    path: str
    class_name: str = ""


def _qualify(dotted: str, ctx: _ScanContext) -> str:
    """Class- or module-qualified lock id for a mutex expression."""
    if dotted.startswith("self."):
        owner = ctx.class_name or ctx.module
        return f"{owner}.{dotted[len('self.'):]}"
    if "." not in dotted:
        return f"{ctx.module}.{dotted}"
    return dotted


def _classify_lock(
    expr: ast.AST, ctx: _ScanContext
) -> Optional[Tuple[str, str]]:
    """``(lock_id, mode)`` when ``expr`` acquires a lock, else ``None``."""
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "read_locked",
            "write_locked",
        ):
            mode = "read" if func.attr == "read_locked" else "write"
            receiver = _dotted_name(func.value) or "<expr>"
            tail = receiver.split(".")[-1]
            if tail in _SERVICE_RW_TAILS:
                return ("service.rwlock", mode)
            if tail == "lock":
                return ("shard.rwlock", mode)
            return (f"{_qualify(receiver, ctx)}.rw", mode)
        if isinstance(func, ast.Name) and func.id == "root_lock":
            return ("db.root_lock", "exclusive")
        return None
    dotted = _dotted_name(expr)
    if dotted is None:
        return None
    tail = dotted.split(".")[-1]
    if tail in _CONDITION_TAILS:
        return None
    lowered = tail.lower()
    if "lock" in lowered or "guard" in lowered or "mutex" in lowered:
        return (_qualify(dotted, ctx), "exclusive")
    return None


class _ModuleScanner:
    """Extracts function facts, class methods, and attribute types."""

    def __init__(self, tree: ast.Module, module: str, path: str) -> None:
        self.module = module
        self.path = path
        self.functions: Dict[str, _FunctionInfo] = {}
        #: class name -> {method name -> qualname}
        self.class_methods: Dict[str, Dict[str, str]] = {}
        #: attribute name -> class names it was seen holding
        self.attr_types: Dict[str, Set[str]] = {}
        #: qualified lock ids constructed via ``threading.RLock()``
        self.reentrant: Set[str] = set()
        self._scan_module(tree)

    # -- structure ------------------------------------------------------
    def _scan_module(self, tree: ast.Module) -> None:
        ctx = _ScanContext(module=self.module, path=self.path)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self._scan_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(node, ctx)

    def _scan_class(self, node: ast.ClassDef) -> None:
        ctx = _ScanContext(
            module=self.module, path=self.path, class_name=node.name
        )
        methods = self.class_methods.setdefault(node.name, {})
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = self._scan_function(child, ctx)
                methods[child.name] = qualname
            elif isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                type_name = _annotation_name(child.annotation)
                if type_name is not None:
                    self.attr_types.setdefault(child.target.id, set()).add(
                        type_name
                    )

    def _scan_function(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        ctx: _ScanContext,
    ) -> str:
        prefix = f"{ctx.class_name}." if ctx.class_name else ""
        qualname = f"{self.module}:{prefix}{node.name}"
        info = _FunctionInfo(
            qualname=qualname,
            module=self.module,
            path=self.path,
            class_name=ctx.class_name,
        )
        # Parameter annotations type the attributes they are stored into.
        param_types: Dict[str, str] = {}
        for arg in [*node.args.args, *node.args.kwonlyargs]:
            type_name = _annotation_name(arg.annotation)
            if type_name is not None:
                param_types[arg.arg] = type_name
        self.functions.setdefault(qualname, info)
        held: List[str] = []
        for statement in node.body:
            self._scan_node(statement, info, ctx, held, param_types, 0)
        # Nested defs become their own functions so their intra-function
        # acquisitions are still analyzed (e.g. the sharded catalog's
        # out-of-band invalidation listener).
        for statement in node.body:
            for child in ast.walk(statement):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._scan_function(child, ctx)
        return qualname

    # -- statement/expression walk --------------------------------------
    def _scan_node(
        self,
        node: ast.AST,
        info: _FunctionInfo,
        ctx: _ScanContext,
        held: List[str],
        param_types: Dict[str, str],
        loop_depth: int,
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # scanned separately with an empty held set
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in node.items:
                self._scan_node(
                    item.context_expr, info, ctx, held, param_types,
                    loop_depth,
                )
                lock = _classify_lock(item.context_expr, ctx)
                if lock is not None:
                    lock_id, mode = lock
                    info.acquisitions.append(
                        _Acquisition(
                            lock=lock_id,
                            line=item.context_expr.lineno,
                            held=tuple([*held, *acquired]),
                            mode=mode,
                            in_loop=False,
                        )
                    )
                    acquired.append(lock_id)
            inner = [*held, *acquired]
            for statement in node.body:
                self._scan_node(
                    statement, info, ctx, inner, param_types, loop_depth
                )
            # enter_context acquisitions made inside the with-body
            # outlive it (the ExitStack releases them, not the with):
            # propagate anything the body pinned back to the caller.
            for lock_id in inner[len(held) + len(acquired):]:
                held.append(lock_id)
            return
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for child in ast.iter_child_nodes(node):
                self._scan_node(
                    child, info, ctx, held, param_types, loop_depth + 1
                )
            return
        if isinstance(node, ast.Call):
            self._record_call(node, info, ctx, held, param_types, loop_depth)
            for child in ast.iter_child_nodes(node):
                self._scan_node(
                    child, info, ctx, held, param_types, loop_depth
                )
            return
        if isinstance(node, ast.Assign):
            self._record_assignment(node, param_types, ctx)
        for child in ast.iter_child_nodes(node):
            self._scan_node(child, info, ctx, held, param_types, loop_depth)

    def _record_assignment(
        self,
        node: ast.Assign,
        param_types: Dict[str, str],
        ctx: _ScanContext,
    ) -> None:
        """Learn attribute types from ``self.x = Cls(...)`` / ``= param``."""
        type_name: Optional[str] = None
        value = node.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            type_name = value.func.id
            if value.func.id == "RLock" or (
                _dotted_name(value.func) == "threading.RLock"
            ):
                type_name = None
        elif isinstance(value, ast.Call) and isinstance(
            value.func, ast.Attribute
        ):
            dotted = _dotted_name(value.func)
            if dotted == "threading.RLock":
                type_name = None
        elif isinstance(value, ast.Name):
            type_name = param_types.get(value.id)
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
            ):
                attr = target.attr
                dotted_value = _dotted_name(value) if not isinstance(
                    value, ast.Call
                ) else (_dotted_name(value.func) if isinstance(
                    value, ast.Call
                ) else None)
                if dotted_value == "threading.RLock":
                    # self._lock = threading.RLock(): this class's lock
                    # (and only this class's) is reentrant.
                    self.reentrant.add(_qualify(f"self.{attr}", ctx))
                elif type_name is not None and type_name[:1].isupper():
                    self.attr_types.setdefault(attr, set()).add(type_name)

    def _record_call(
        self,
        node: ast.Call,
        info: _FunctionInfo,
        ctx: _ScanContext,
        held: List[str],
        param_types: Dict[str, str],
        loop_depth: int,
    ) -> None:
        func = node.func
        held_now = tuple(held)
        if isinstance(func, ast.Attribute):
            if func.attr == "enter_context" and node.args:
                lock = _classify_lock(node.args[0], ctx)
                if lock is not None:
                    lock_id, mode = lock
                    info.acquisitions.append(
                        _Acquisition(
                            lock=lock_id,
                            line=node.lineno,
                            held=held_now,
                            mode=mode,
                            in_loop=loop_depth > 0,
                        )
                    )
                    held.append(lock_id)  # pinned until function end
                return
            if func.attr in _IO_NAMES and held_now:
                info.io_calls.append(
                    _IOSite(name=func.attr, line=node.lineno, held=held_now)
                )
            value = func.value
            if isinstance(value, ast.Name) and value.id == "self":
                info.calls.append(
                    _CallSite("self", "", func.attr, node.lineno, held_now)
                )
            else:
                tail = None
                if isinstance(value, ast.Attribute):
                    tail = value.attr
                elif isinstance(value, ast.Name):
                    tail = value.id
                if tail is not None:
                    info.calls.append(
                        _CallSite(
                            "attr", tail, func.attr, node.lineno, held_now
                        )
                    )
        elif isinstance(func, ast.Name):
            info.calls.append(
                _CallSite("name", "", func.id, node.lineno, held_now)
            )


def _annotation_name(annotation: Optional[ast.AST]) -> Optional[str]:
    """Class name out of ``X``, ``"X"``, or ``Optional[X]`` annotations."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        name = annotation.value.strip().strip('"').strip("'")
        return name.split("[")[-1].rstrip("]") if "[" in name else name
    if isinstance(annotation, ast.Subscript):
        return _annotation_name(annotation.slice)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return None


# ----------------------------------------------------------------------
# Whole-tree analysis
# ----------------------------------------------------------------------
class _Program:
    """Cross-module call resolution and transitive acquire sets."""

    def __init__(self) -> None:
        self.functions: Dict[str, _FunctionInfo] = {}
        self.class_methods: Dict[str, Dict[str, str]] = {}
        self.attr_types: Dict[str, Set[str]] = {}
        self.method_classes: Dict[str, List[str]] = {}
        self.global_functions: Dict[str, List[str]] = {}
        self.module_functions: Dict[Tuple[str, str], str] = {}
        self.reentrant_ids: Set[str] = set()
        self._acquire_sets: Dict[str, Set[str]] = {}

    def absorb(self, scanner: _ModuleScanner) -> None:
        self.functions.update(scanner.functions)
        self.reentrant_ids.update(scanner.reentrant)
        for class_name, methods in scanner.class_methods.items():
            table = self.class_methods.setdefault(class_name, {})
            table.update(methods)
            for method in methods:
                self.method_classes.setdefault(method, []).append(class_name)
        for attr, classes in scanner.attr_types.items():
            self.attr_types.setdefault(attr, set()).update(classes)
        for qualname, info in scanner.functions.items():
            name = qualname.split(":", 1)[1]
            if "." not in name:  # module-level function
                self.module_functions[(info.module, name)] = qualname
                self.global_functions.setdefault(name, []).append(qualname)

    # -- resolution ------------------------------------------------------
    def resolve(self, caller: _FunctionInfo, call: _CallSite) -> List[str]:
        if call.kind == "self":
            table = self.class_methods.get(caller.class_name, {})
            target = table.get(call.name)
            return [target] if target is not None else []
        if call.kind == "name":
            target = self.module_functions.get((caller.module, call.name))
            if target is not None:
                return [target]
            candidates = self.global_functions.get(call.name, [])
            return sorted(candidates) if len(candidates) == 1 else []
        # attribute call: prefer the receiver attribute's tracked types
        typed = self.attr_types.get(call.owner)
        if typed:
            resolved = []
            for class_name in sorted(typed):
                target = self.class_methods.get(class_name, {}).get(call.name)
                if target is not None:
                    resolved.append(target)
            if resolved:
                return resolved
        if call.name in _COMMON_METHODS:
            return []
        owners = self.method_classes.get(call.name, [])
        if len(set(owners)) == 1:
            target = self.class_methods[owners[0]].get(call.name)
            return [target] if target is not None else []
        return []

    def acquire_set(self, qualname: str) -> Set[str]:
        """Locks ``qualname`` may acquire, transitively (cycle-safe)."""
        cached = self._acquire_sets.get(qualname)
        if cached is not None:
            return cached
        self._acquire_sets[qualname] = set()  # cycle guard
        info = self.functions.get(qualname)
        if info is None:
            return set()
        acquired: Set[str] = {a.lock for a in info.acquisitions}
        for call in info.calls:
            for callee in self.resolve(info, call):
                acquired |= self.acquire_set(callee)
        self._acquire_sets[qualname] = acquired
        return acquired


def build_lock_graph(
    paths: Sequence[Path],
    *,
    _collect_io: Optional[List[Tuple[str, _IOSite]]] = None,
    _suppressed: Optional[Dict[str, Dict[int, Set[str]]]] = None,
) -> LockGraph:
    """Build the may-hold-while-acquiring graph for every file under
    ``paths``.  CC001-suppressed acquisition sites contribute no edges
    (the pragma asserts the multi-acquisition order is fixed)."""
    program = _Program()
    graph = LockGraph()
    files = _python_files([Path(p) for p in paths])
    reentrant_ids: Set[str] = set()
    for file in files:
        try:
            source = file.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file))
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue  # the AST linter reports unreadable files as AL000
        posix = _as_posix(str(file))
        if _suppressed is not None:
            _suppressed[posix] = _suppressions(source)
        scanner = _ModuleScanner(tree, module=file.stem, path=posix)
        program.absorb(scanner)
    graph.files_examined = len(files)

    # Lock kinds: class-qualified ids constructed via threading.RLock()
    # are reentrant; everything else exclusive is a plain mutex.
    for info in program.functions.values():
        for acquisition in info.acquisitions:
            lock_id = acquisition.lock
            if lock_id not in graph.nodes:
                if lock_id in _COMMIT_LOCKS:
                    kind = "commit"
                elif acquisition.mode in ("read", "write"):
                    kind = "rwlock"
                elif lock_id in program.reentrant_ids:
                    kind = "rlock"
                else:
                    kind = "mutex"
                graph.nodes[lock_id] = kind
            if graph.nodes[lock_id] == "rlock":
                reentrant_ids.add(lock_id)

    suppressed = _suppressed if _suppressed is not None else {}

    def edge_allowed(path: str, line: int) -> bool:
        codes = suppressed.get(path, {}).get(line, set())
        return "CC001" not in codes and "ALL" not in codes

    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        for acquisition in info.acquisitions:
            holders = set(acquisition.held)
            if acquisition.in_loop:
                holders.add(acquisition.lock)  # re-acquired every pass
            for holding in sorted(holders):
                if holding == acquisition.lock and (
                    acquisition.lock in reentrant_ids
                ):
                    continue
                if not edge_allowed(info.path, acquisition.line):
                    continue
                graph.add_edge(
                    LockSite(
                        path=info.path,
                        line=acquisition.line,
                        function=qualname,
                        holding=holding,
                        acquiring=acquisition.lock,
                        note=f"{acquisition.mode} acquisition",
                    )
                )
        for call in info.calls:
            if not call.held:
                continue
            for callee in program.resolve(info, call):
                for acquired in sorted(program.acquire_set(callee)):
                    for holding in call.held:
                        if holding == acquired and acquired in reentrant_ids:
                            continue
                        if not edge_allowed(info.path, call.line):
                            continue
                        graph.add_edge(
                            LockSite(
                                path=info.path,
                                line=call.line,
                                function=qualname,
                                holding=holding,
                                acquiring=acquired,
                                note=f"via call to {callee}",
                            )
                        )
        if _collect_io is not None:
            for io_site in info.io_calls:
                _collect_io.append((info.path, io_site))
    return graph


def check_lock_order(
    paths: Optional[Sequence[Path]] = None,
    *,
    rules: Optional[Iterable[str]] = None,
) -> AnalysisReport:
    """Run the lock-order pass; returns a ``lockgraph`` report.

    ``paths`` defaults to the installed ``repro`` package.  ``rules``
    restricts to a subset of ``CC001`` / ``CC002`` (the AST linter's
    ``--rule`` flag is shared); pragma suppressions are honoured.
    """
    if paths is None:
        import repro

        paths = [Path(repro.__file__).parent]
    wanted = (
        {code.upper() for code in rules} if rules is not None else set(CC_RULES)
    )
    report = AnalysisReport(pass_name="lockgraph")
    io_sites: List[Tuple[str, _IOSite]] = []
    suppressed: Dict[str, Dict[int, Set[str]]] = {}
    graph = build_lock_graph(
        paths, _collect_io=io_sites, _suppressed=suppressed
    )
    report.subjects_examined = graph.files_examined

    if "CC001" in wanted:
        for cycle in graph.cycles():
            members = set(cycle)
            evidence: List[LockSite] = []
            for (src, dst), sites in sorted(graph.edges.items()):
                if src in members and dst in members and (
                    len(cycle) > 1 or src == dst
                ):
                    evidence.extend(sites)
            if not evidence:
                continue
            evidence.sort(key=lambda s: (s.path, s.line))
            first = evidence[0]
            if len(cycle) == 1:
                message = (
                    f"lock {cycle[0]} may be re-acquired while already "
                    f"held (self-cycle on a non-reentrant lock)"
                )
            else:
                message = (
                    "lock-order cycle between "
                    + " and ".join(cycle)
                    + " (opposite acquisition orders exist)"
                )
            report.add(
                Finding(
                    code="CC001",
                    severity=Severity.ERROR,
                    location=f"{first.path}:{first.line}",
                    message=message,
                    fix_hint=CC_RULES["CC001"].fix_hint,
                    details={
                        "cycle": list(cycle),
                        "sites": [site.to_dict() for site in evidence],
                    },
                )
            )

    if "CC002" in wanted:
        for path, io_site in sorted(
            io_sites, key=lambda pair: (pair[0], pair[1].line)
        ):
            relevant = [
                lock for lock in io_site.held if lock not in _COMMIT_LOCKS
            ]
            if not relevant:
                continue
            codes = suppressed.get(path, {}).get(io_site.line, set())
            if "CC002" in codes or "ALL" in codes:
                continue
            report.add(
                Finding(
                    code="CC002",
                    severity=Severity.WARNING,
                    location=f"{path}:{io_site.line}",
                    message=(
                        f"{io_site.name}() performed while holding "
                        + ", ".join(sorted(relevant))
                    ),
                    fix_hint=CC_RULES["CC002"].fix_hint,
                    details={"held": sorted(relevant), "io": io_site.name},
                )
            )
    return report
