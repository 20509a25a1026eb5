"""Testing support: fault injection and dynamic race detection.

* :mod:`repro.testing.faults` — deterministic write/fsync fault plans
  for crash-safety verification of the persistence layer.
* :mod:`repro.testing.racecheck` — an opt-in dynamic concurrency
  checker (``repro race-check``): tracked proxies wrap the shared
  structures and locks, the RW locks report acquisitions through
  monitor hooks; unsynchronized accesses are ``CC004`` findings (Eraser
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
