"""Structured findings shared by every static-analysis pass.

A :class:`Finding` is one defect or diagnostic: a stable code (``DB*``
for the catalog checker, ``AL*`` for the AST linter, ``CC*`` for the
race checker; the retired ``RS*`` codes named the rule-soundness checks
that are now the ``tests/core`` widening and kernel-parity properties),
a severity, a location (``path:line`` for lint and the race checker,
an image id for the catalog checker), a human message, and a fix hint.
:class:`AnalysisReport` collects findings and renders them with the same
``describe()`` / ``to_dict()`` conventions the observability layer
(:mod:`repro.obs`) established, so CLI consumers and CI gates treat
every pass uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


def _location_key(location: str) -> Tuple[str, int]:
    """``(path, line)`` sort key for a ``path:line`` location string.

    Locations without a trailing ``:<digits>`` (image ids, rule-case
    names) sort by the whole string with line 0, so semantic-pass
    findings stay deterministic too.
    """
    path, sep, tail = location.rpartition(":")
    if sep and tail.isdigit():
        return (path, int(tail))
    return (location, 0)


class Severity(enum.Enum):
    """How bad one finding is.

    ``ERROR`` findings gate CI (``repro lint`` / ``repro check`` exit
    non-zero); ``WARNING`` findings indicate likely problems that do not
    break soundness; ``INFO`` findings are diagnostics.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One defect or diagnostic reported by an analysis pass."""

    #: Stable machine-readable code (``DB003``, ``AL002``, ``CC004``...).
    code: str
    severity: Severity
    #: Where: ``path:line`` for lint and race findings, an image id for
    #: the catalog checker.
    location: str
    #: What is wrong, in one sentence.
    message: str
    #: How to fix it (or why it may be acceptable), in one sentence.
    fix_hint: str = ""
    #: Pass-specific structured payload (e.g. the race checker's race
    #: record or lock cycle); values must be JSON-serializable.
    details: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """``severity code location: message (hint: ...)``."""
        text = f"{self.severity.value} {self.code} {self.location}: {self.message}"
        if self.fix_hint:
            text += f" (hint: {self.fix_hint})"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
            "fix_hint": self.fix_hint,
            "details": dict(self.details),
        }


@dataclass
class AnalysisReport:
    """Findings from one analysis pass plus derived aggregates."""

    #: Which pass produced the report (``catalog`` / ``lint`` / ``racecheck``).
    pass_name: str
    findings: List[Finding] = field(default_factory=list)
    #: How many subjects the pass examined (tracked locations, images, or files) —
    #: context for "zero findings" being meaningful rather than vacuous.
    subjects_examined: int = 0

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when no finding is an ``ERROR``."""
        return not any(f.severity is Severity.ERROR for f in self.findings)

    @property
    def clean(self) -> bool:
        """True when there are no findings at all."""
        return not self.findings

    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity is severity]

    def by_code(self, code: str) -> List[Finding]:
        return [f for f in self.findings if f.code == code]

    def codes(self) -> List[str]:
        """Distinct finding codes, sorted."""
        return sorted({f.code for f in self.findings})

    def counts(self) -> Dict[str, int]:
        """``{code: count}`` over all findings, key-sorted."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def sorted_findings(self) -> List[Finding]:
        """Findings in deterministic ``(code, path, line)`` order.

        The ordering is stable across runs and Python hash seeds so CI
        diffs of ``--json`` reports and golden-file tests never churn:
        code first (groups one rule's findings together), then the
        location split into its path and *numeric* line (``file:9``
        sorts before ``file:10``), then message as the tiebreak.
        """
        return sorted(
            self.findings,
            key=lambda f: (f.code, *_location_key(f.location), f.message),
        )

    # ------------------------------------------------------------------
    def describe(self, limit: Optional[int] = None) -> str:
        """Human-readable report: summary line plus one line per finding."""
        errors = len(self.by_severity(Severity.ERROR))
        warnings = len(self.by_severity(Severity.WARNING))
        infos = len(self.by_severity(Severity.INFO))
        lines = [
            f"{self.pass_name}: {self.subjects_examined} subjects examined, "
            f"{errors} errors, {warnings} warnings, {infos} notes"
        ]
        shown = self.sorted_findings()
        if limit is not None and len(shown) > limit:
            shown = shown[:limit]
            lines.append(f"  (showing first {limit} of {len(self.findings)})")
        for finding in shown:
            lines.append("  " + finding.describe())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pass": self.pass_name,
            "ok": self.ok,
            "subjects_examined": self.subjects_examined,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.sorted_findings()],
        }
