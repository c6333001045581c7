"""The coherence conformance harness.

Three independent nets under the protocol:

* :mod:`.invariants` -- the one statement of the global invariants,
  checked at the end of every run and, installed, after every protocol
  action;
* :mod:`.conformance` -- replay of a recorded protocol trace against the
  declarative Figure 4 transition table;
* :mod:`.fuzz` -- seeded schedule fuzzing: synthetic workloads under
  perturbed same-timestamp event orderings, with invariants enabled and
  failing schedules shrunk to minimal reproductions.

Exposed on the command line as ``python -m repro check``.
"""

from .conformance import (
    ConformanceChecker,
    ConformanceReport,
    Divergence,
    check_trace,
)
from .fuzz import (
    FuzzFailure,
    FuzzOp,
    FuzzReport,
    ScheduleOutcome,
    fuzz,
    fuzz_corpus,
    make_schedule,
    run_schedule,
    schedule_from_spec,
    shrink_schedule,
)
from .invariants import (
    InvariantChecker,
    InvariantViolation,
    install_invariant_checker,
)

__all__ = [
    "ConformanceChecker",
    "ConformanceReport",
    "Divergence",
    "FuzzFailure",
    "FuzzOp",
    "FuzzReport",
    "InvariantChecker",
    "InvariantViolation",
    "ScheduleOutcome",
    "check_trace",
    "fuzz",
    "fuzz_corpus",
    "install_invariant_checker",
    "make_schedule",
    "run_schedule",
    "schedule_from_spec",
    "shrink_schedule",
]
