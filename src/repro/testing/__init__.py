"""Testing support: fault injection and dynamic race detection.

* :mod:`repro.testing.faults` — deterministic write/fsync fault plans
  for crash-safety verification of the persistence layer.
* :mod:`repro.testing.racecheck` — an opt-in dynamic concurrency
  checker that the tier-1 suite runs (:func:`run_race_check`): tracked
  proxies wrap the metrics tables, the event ring and the result
  cache, tracked locks and the RW locks' monitor hooks report
  acquisitions; unsynchronized accesses are ``CC004`` findings (Eraser
  lockset, light fork/join happens-before) and cycles in the observed
  lock order ``CC001`` findings.
"""

from repro.testing.faults import (
    CountingFaults,
    FaultPlan,
    InjectedCrash,
    NoFaults,
    WriteEvent,
)
from repro.testing.racecheck import (
    SCENARIOS,
    Race,
    RaceMonitor,
    TrackedDict,
    TrackedLock,
    instrument_sharded,
    run_race_check,
)

__all__ = [
    "CountingFaults",
    "FaultPlan",
    "InjectedCrash",
    "NoFaults",
    "Race",
    "RaceMonitor",
    "SCENARIOS",
    "TrackedDict",
    "TrackedLock",
    "WriteEvent",
    "instrument_sharded",
    "run_race_check",
]
