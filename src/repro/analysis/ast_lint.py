"""Concurrency- and numeric-discipline linter over ``src/repro/`` itself.

Pure stdlib-``ast`` analysis (no third-party linter needed) enforcing
rules the test suite cannot check dynamically because they are about
*which* code path takes a lock, not what the code computes:

``AL001`` raw-lock (ERROR) — scope ``repro/service/``
    ``threading.Lock()`` / ``threading.RLock()`` constructed inside the
    service layer, where the writer-preferring
    :class:`repro.rwlock.ReadWriteLock` is the mandated discipline.  The
    handful of legitimate short-critical-section locks (cache
    bookkeeping, admission gate, lazy index builds) carry an inline
    ``# repro-lint: disable=AL001`` pragma explaining themselves.
``AL002`` unlocked-mutation (ERROR) — scopes ``repro/service/``,
    ``repro/shard/sharded.py``, ``repro/shard/records.py``,
    ``repro/shard/compactor.py``
    A call to a database/catalog mutator (``insert_image``,
    ``delete_edited``, ...) on a database-like receiver — or to the
    sharded catalog's one mutation committer (``_commit``) — that is
    not lexically inside a ``with ...write_locked():`` block.
    Mutating the catalog while readers hold bounds walks is the exact
    race the RW lock exists to prevent.
``AL003`` mutation-without-invalidate (ERROR) — scope ``repro/db/database.py``
    A function that calls a catalog mutator (``add_edited``,
    ``remove_binary``, ...) without also calling the bounds engine's
    ``invalidate`` / ``invalidate_cache`` in the same function body —
    the memo cache and dependency graph would go stale silently.
``AL004`` float-eq-on-bounds (ERROR) — all of ``src/repro/``
    ``==`` / ``!=`` on a percentage-bound value (``fraction_lo``,
    ``fraction_hi``, ``pct_min``, ``pct_max``).  Bounds comparisons must
    use exact integer cross-multiplication or explicit tolerances;
    float equality on derived ratios is how off-by-one-ULP pruning bugs
    are born.
``AL005`` upward-import (ERROR) — every module under a ``repro/`` package
    An import — module-scope or function-local — of a ``repro`` package
    that sits *above* the importing one in :data:`PACKAGE_ORDER`
    (``shard`` and ``db`` may not reach into ``service``; nothing but
    the CLI into ``testing``).  ``if TYPE_CHECKING:`` imports are exempt.
``AL006`` unreachable-statement (ERROR) — all of ``src/repro/``
    A statement that follows an unconditional ``return`` / ``raise`` /
    ``continue`` / ``break`` in the same block: a stale copy of live
    code left behind a ``return`` drifts unnoticed.

Suppression: append ``# repro-lint: disable=AL001`` (comma-separate for
several codes) to the offending physical line.  ``disable=all`` silences
every rule on that line.  A pragma on a ``def`` line suppresses those
codes for the whole function body — for functions whose contract is
"caller holds the lock" (the record-kind table's appliers), where
per-line pragmas would just repeat the same justification.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import AnalysisReport, Finding, Severity

#: Database-level mutators (repro.db.database.MultimediaDatabase).
DATABASE_MUTATORS: Set[str] = {
    "insert_image",
    "insert_edited",
    "delete_edited",
    "delete_image",
    "update_image",
    "augment",
}

#: Catalog-level mutators (repro.db.catalog.Catalog).
CATALOG_MUTATORS: Set[str] = {
    "add_binary",
    "add_edited",
    "remove_binary",
    "remove_edited",
}

#: Sharded-tier mutator: ``ShardedCatalog._commit`` journals and applies
#: one record to a shard and must run under that shard's write lock.
SHARD_MUTATORS: Set[str] = {"_commit"}

#: Receiver names that look like they hold the shared database/catalog.
_DATABASE_RECEIVERS: Set[str] = {
    "db",
    "_db",
    "database",
    "_database",
    "catalog",
    "_catalog",
}

#: Attributes holding percentage-bound values (float-derived ratios).
_BOUND_ATTRS: Set[str] = {"fraction_lo", "fraction_hi", "pct_min", "pct_max"}

#: The package order, low → high; names in one tuple share a level.  A
#: module may import its own level and below.  Two pairs are knots by
#: design and sit on one level each: ``images.generators`` builds demo
#: edit sequences while ``editing`` rasterizes images, and
#: ``index.builders`` walks a database that owns its indexes.
PACKAGE_ORDER: Tuple[Tuple[str, ...], ...] = (
    ("errors",), ("rwlock",), ("images", "editing"), ("color",),
    ("core",), ("querylang",), ("obs",), ("db", "index"), ("shard",),
    ("service",), ("workloads",), ("analysis",), ("testing",),
    ("cli",), ("__init__", "__main__"),
)

_PACKAGE_LEVEL: Dict[str, int] = {
    name: level for level, names in enumerate(PACKAGE_ORDER) for name in names
}

#: Statements after which nothing else in the same block can run.
_BLOCK_EXITS = (ast.Return, ast.Raise, ast.Continue, ast.Break)

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class LintRule:
    """One lint rule: a stable code plus the path scope it applies to."""

    code: str
    summary: str
    #: ``|``-separated substrings of the POSIX-style path the rule
    #: applies to ("" = all); matching any one of them is enough.
    path_scope: str
    fix_hint: str

    def applies_to(self, path: str) -> bool:
        posix = _as_posix(path)
        return any(scope in posix for scope in self.path_scope.split("|"))


LINT_RULES: Dict[str, LintRule] = {
    rule.code: rule
    for rule in (
        LintRule(
            code="AL001",
            summary="raw threading.Lock/RLock in the service layer",
            path_scope="repro/service/",
            fix_hint=(
                "use repro.rwlock.ReadWriteLock (read_locked()/"
                "write_locked()); if a plain mutex is genuinely right, "
                "say why on the line and add # repro-lint: disable=AL001"
            ),
        ),
        LintRule(
            code="AL002",
            summary="database/catalog mutation outside write_locked()",
            path_scope=(
                "repro/service/|repro/shard/sharded.py|"
                "repro/shard/records.py|repro/shard/compactor.py"
            ),
            fix_hint=(
                "wrap the mutator call in `with self._rwlock."
                "write_locked():` (service) or `with shard.lock."
                "write_locked():` (shard tier) like the mutation wrappers"
            ),
        ),
        LintRule(
            code="AL003",
            summary="catalog mutation without cache invalidation",
            path_scope="repro/db/database.py",
            fix_hint=(
                "call self.engine.invalidate(image_id) (or "
                "invalidate_cache()) in the same function as the catalog "
                "mutation"
            ),
        ),
        LintRule(
            code="AL004",
            summary="float == / != on a percentage-bound value",
            path_scope="",
            fix_hint=(
                "compare the underlying integer counts with exact "
                "cross-multiplication (post.lo * pre.total <= pre.lo * "
                "post.total), or use an explicit tolerance"
            ),
        ),
        LintRule(
            code="AL005",
            summary="import of a package above the importer in PACKAGE_ORDER",
            path_scope="repro/",
            fix_hint=(
                "move the shared primitive down to a package both sides "
                "may import (PACKAGE_ORDER), or pass it in from above"
            ),
        ),
        LintRule(
            code="AL006",
            summary="statement after an unconditional return/raise/continue/break",
            path_scope="",
            fix_hint="delete the dead statements, or move the exit below them",
        ),
    )
}


def _as_posix(path: str) -> str:
    return path.replace("\\", "/")


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _receiver_tail(func: ast.AST) -> Optional[str]:
    """Name of the object a method is called on (``self._database.x()``
    -> ``_database``); ``None`` for plain function calls."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _package_of(path: str) -> Optional[str]:
    """The top-level ``repro`` package (or module) a source file is in."""
    _, found, below = _as_posix(path).rpartition("repro/")
    return below.split("/")[0].removesuffix(".py") if found else None


def _imported_packages(node: ast.AST) -> List[str]:
    """The names an import reaches for right below ``repro``.

    ``from repro import X`` counts as ``repro.X`` (a re-export is no
    package and ranks above all); a bare ``import repro`` names nothing.
    """
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        modules = [node.module or ""]
        if node.module == "repro":
            modules = [f"repro.{alias.name}" for alias in node.names]
    else:
        return []
    return [m.split(".")[1] for m in modules if m.startswith("repro.")]


def _is_write_locked_with(node: ast.With) -> bool:
    """True when any item of the ``with`` is a ``*.write_locked()`` call."""
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "write_locked"
        ):
            return True
    return False


@dataclass(frozen=True)
class _RawFinding:
    code: str
    line: int
    message: str


class _Visitor(ast.NodeVisitor):
    """Single-pass collector for every rule (scoping applied afterwards)."""

    def __init__(self, package: Optional[str] = None) -> None:
        self.raw: List[_RawFinding] = []
        self._write_locked_depth = 0
        self._package = package
        self._level = _PACKAGE_LEVEL.get(package) if package else None

    # -- AL006 ---------------------------------------------------------
    def generic_visit(self, node: ast.AST) -> None:
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if not isinstance(block, list):
                continue
            for before, after in zip(block, block[1:]):
                if isinstance(before, _BLOCK_EXITS):
                    kind = type(before).__name__.lower()
                    message = f"unreachable: follows the {kind} on line {before.lineno}"
                    self.raw.append(_RawFinding("AL006", after.lineno, message))
                    break
        super().generic_visit(node)

    # -- AL005 ---------------------------------------------------------
    def visit_If(self, node: ast.If) -> None:
        if _dotted_name(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def _check_import(self, node: ast.stmt) -> None:
        if self._level is None:
            return
        for target in _imported_packages(node):
            if _PACKAGE_LEVEL.get(target, len(PACKAGE_ORDER)) > self._level:
                self.raw.append(
                    _RawFinding(
                        "AL005",
                        node.lineno,
                        f"repro.{self._package} imports repro.{target}, "
                        f"which is above it in the package order",
                    )
                )

    visit_Import = visit_ImportFrom = _check_import

    # -- AL001 / AL002 -------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        if _is_write_locked_with(node):
            self._write_locked_depth += 1
            self.generic_visit(node)
            self._write_locked_depth -= 1
        else:
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted in ("threading.Lock", "threading.RLock"):
            self.raw.append(
                _RawFinding(
                    "AL001",
                    node.lineno,
                    f"{dotted}() constructed where the RW-lock discipline "
                    f"applies",
                )
            )
        if (
            isinstance(node.func, ast.Attribute)
            and self._write_locked_depth == 0
        ):
            attr = node.func.attr
            receiver = _receiver_tail(node.func)
            is_db_mutation = (
                attr in (DATABASE_MUTATORS | CATALOG_MUTATORS)
                and receiver in _DATABASE_RECEIVERS
            )
            # ``_commit`` is a method of the sharded catalog itself, so
            # self-calls count too.
            is_shard_mutation = attr in SHARD_MUTATORS and (
                receiver in _DATABASE_RECEIVERS or receiver == "self"
            )
            if is_db_mutation or is_shard_mutation:
                self.raw.append(
                    _RawFinding(
                        "AL002",
                        node.lineno,
                        f"mutator {attr}() called outside a "
                        f"write_locked() block",
                    )
                )
        self.generic_visit(node)

    # -- AL003 ---------------------------------------------------------
    def _check_invalidate_pairing(self, node: ast.AST) -> None:
        mutations: List[Tuple[str, int]] = []
        invalidates = False
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in CATALOG_MUTATORS:
                mutations.append((func.attr, child.lineno))
            if func.attr in ("invalidate", "invalidate_cache"):
                invalidates = True
        if mutations and not invalidates:
            for name, line in mutations:
                self.raw.append(
                    _RawFinding(
                        "AL003",
                        line,
                        f"catalog mutation {name}() with no engine "
                        f"invalidate in the same function",
                    )
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_invalidate_pairing(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_invalidate_pairing(node)
        self.generic_visit(node)

    # -- AL004 ---------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for operand in [node.left, *node.comparators]:
                name: Optional[str] = None
                if isinstance(operand, ast.Attribute):
                    name = operand.attr
                elif isinstance(operand, ast.Name):
                    name = operand.id
                if name in _BOUND_ATTRS:
                    self.raw.append(
                        _RawFinding(
                            "AL004",
                            node.lineno,
                            f"float equality comparison on bound value "
                            f"{name!r}",
                        )
                    )
                    break
        self.generic_visit(node)


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """``{line_number: {codes}}`` from ``# repro-lint: disable=`` pragmas."""
    result: Dict[int, Set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match:
            codes = {c.strip().upper() for c in match.group(1).split(",")}
            result[number] = {c for c in codes if c}
    return result


def _function_suppressions(
    tree: ast.Module, suppressed: Dict[int, Set[str]]
) -> List[Tuple[int, int, Set[str]]]:
    """``(start, end, codes)`` spans from pragmas on ``def`` lines.

    A pragma on the line introducing a function suppresses its codes
    for the function's entire body — the idiom for "caller holds the
    lock" contracts, where every call site in the body would otherwise
    need the same pragma and justification.
    """
    spans: List[Tuple[int, int, Set[str]]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            codes = suppressed.get(node.lineno)
            if codes:
                spans.append(
                    (node.lineno, node.end_lineno or node.lineno, codes)
                )
    return spans


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one module's source text; returns the surviving findings.

    ``rules`` restricts to a subset of codes (default: every rule whose
    path scope matches ``path``).  Pragma suppressions are honoured.
    """
    tree = ast.parse(source, filename=path)
    visitor = _Visitor(_package_of(path))
    visitor.visit(tree)
    suppressed = _suppressions(source)
    function_spans = _function_suppressions(tree, suppressed)
    wanted = set(rules) if rules is not None else set(LINT_RULES)
    findings: List[Finding] = []
    for raw in visitor.raw:
        rule = LINT_RULES[raw.code]
        if raw.code not in wanted or not rule.applies_to(path):
            continue
        line_codes = suppressed.get(raw.line, set())
        for start, end, codes in function_spans:
            if start <= raw.line <= end:
                line_codes = line_codes | codes
        if raw.code in line_codes or "ALL" in line_codes:
            continue
        findings.append(
            Finding(
                code=raw.code,
                severity=Severity.ERROR,
                location=f"{_as_posix(path)}:{raw.line}",
                message=raw.message,
                fix_hint=rule.fix_hint,
            )
        )
    return findings


def _python_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def lint_paths(
    paths: Sequence[Path],
    *,
    rules: Optional[Iterable[str]] = None,
) -> AnalysisReport:
    """Lint every ``*.py`` under ``paths``; returns the combined report."""
    report = AnalysisReport(pass_name="lint")
    files = _python_files([Path(p) for p in paths])
    for file in files:
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.add(
                Finding(
                    code="AL000",
                    severity=Severity.WARNING,
                    location=_as_posix(str(file)),
                    message=f"unreadable source file: {exc}",
                    fix_hint="fix the encoding or remove the file",
                )
            )
            continue
        try:
            report.extend(lint_source(source, str(file), rules=rules))
        except SyntaxError as exc:
            report.add(
                Finding(
                    code="AL000",
                    severity=Severity.ERROR,
                    location=f"{_as_posix(str(file))}:{exc.lineno or 0}",
                    message=f"syntax error: {exc.msg}",
                    fix_hint="the module does not parse; fix it first",
                )
            )
    report.subjects_examined = len(files)
    return report
