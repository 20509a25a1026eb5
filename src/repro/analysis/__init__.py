"""Static analysis over the rule system and the codebase.

One static pass, runnable offline, that takes the shipped source tree
as its input: :mod:`repro.analysis.ast_lint`, a stdlib-``ast`` linter
enforcing the repo's concurrency and numeric discipline on
``src/repro/`` itself (``repro lint``).  The §4 soundness claims — every
rule :func:`repro.core.classify.is_bound_widening` marks as widening
only grows the percentage interval, and the scalar
(:mod:`repro.core.rules`) and columnar (:mod:`repro.core.optable`)
kernels agree — are deterministic properties of the test suite
(``tests/core/rule_properties.py``), not a pass of this package.

A dynamic companion lives in :mod:`repro.testing.racecheck`, run by
the tier-1 suite: over instrumented scenarios it runs an Eraser-style
lockset race detector (``CC004``) and records the lock order every
acquisition observes, reporting its cycles as potential deadlocks
(``CC001``), through the same machinery.  The stored catalog
has one checker, :func:`repro.db.integrity.verify_integrity`
(``repro check``, codes ``DB001``–``DB009``); it lives in ``repro.db``
because a stored database must be checkable without this package, and
the CLI renders its problems through the same report.

Every pass reports :class:`~repro.analysis.findings.Finding` objects
(severity, stable code, location, fix hint) collected into an
:class:`~repro.analysis.findings.AnalysisReport`, mirroring the
``describe()`` / ``to_dict()`` conventions of :mod:`repro.obs`.
"""

from repro.analysis.ast_lint import LINT_RULES, lint_paths, lint_source
from repro.analysis.findings import AnalysisReport, Finding, Severity

__all__ = [
    "AnalysisReport",
    "Finding",
    "LINT_RULES",
    "Severity",
    "lint_paths",
    "lint_source",
]
