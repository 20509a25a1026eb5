"""Static analysis over the rule system, the catalog, and the codebase.

Three coordinated passes, all runnable offline (no raster is ever
instantiated).  Each takes the shipped source tree or a stored catalog
as its input and carries no copy of the thing it checks:

* :mod:`repro.analysis.prover` — an interval abstract interpreter that
  *proves* the §4 bound-widening claims: every rule
  :func:`repro.core.classify.is_bound_widening` marks as widening must be
  monotone on the percentage interval over a systematic grid plus a
  randomized corpus of abstract states, and the scalar
  (:mod:`repro.core.rules`) and columnar (:mod:`repro.core.optable`)
  kernels must agree byte-identically on every state.
* :mod:`repro.analysis.catalog_lint` — static checks over an
  :class:`~repro.editing.sequence.EditSequence` catalog: dangling
  references, Merge cycles, size underflow, BWM placement consistency,
  cache-dependency-graph agreement, and vacuous-bounds diagnostics
  (``repro analyze-db``).  The first, second and fourth are rendered
  from :func:`repro.db.integrity.scan_catalog`, the one detector
  ``repro check`` also reports from.
* :mod:`repro.analysis.ast_lint` — a stdlib-``ast`` linter enforcing the
  repo's concurrency and numeric discipline on ``src/repro/`` itself
  (``repro lint``).

A fourth, dynamic companion lives in :mod:`repro.testing.racecheck`
(``repro race-check``): over instrumented scenarios it runs an
Eraser-style lockset race detector (``CC004``) and records the lock
order every acquisition observes, reporting its cycles as potential
deadlocks (``CC001``), through the same machinery.

Every pass reports :class:`~repro.analysis.findings.Finding` objects
(severity, stable code, location, fix hint) collected into an
:class:`~repro.analysis.findings.AnalysisReport`, mirroring the
``describe()`` / ``to_dict()`` conventions of :mod:`repro.obs`.
"""

from repro.analysis.ast_lint import LINT_RULES, lint_paths, lint_source
from repro.analysis.catalog_lint import analyze_database, check_shard_routing
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.prover import ProverReport, RuleVerdict, prove_rules

__all__ = [
    "AnalysisReport",
    "Finding",
    "LINT_RULES",
    "ProverReport",
    "RuleVerdict",
    "Severity",
    "analyze_database",
    "check_shard_routing",
    "lint_paths",
    "lint_source",
    "prove_rules",
]
