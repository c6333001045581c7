"""Baseline systems the paper compares against.

* Uniform System (static scattered placement, remote access in place) --
  the section 5.1 Gauss comparison;
* SMP message passing over ports -- the other side of that comparison;
* the Sequent Symmetry UMA machine with small write-through caches --
  the Figure 5 merge-sort comparison;
* the ACE-style policy (Bolosky et al.) lives in ``repro.policy.fixed``.
"""

from .sequent import (
    SequentAPI,
    SequentMachine,
    SequentParams,
    SequentRunResult,
    run_on_sequent,
)
from .smp import SMPGauss, smp_kernel
from .uniform_system import UniformSystemGauss, uniform_system_kernel

__all__ = [
    "SMPGauss",
    "SequentAPI",
    "SequentMachine",
    "SequentParams",
    "SequentRunResult",
    "UniformSystemGauss",
    "run_on_sequent",
    "smp_kernel",
    "uniform_system_kernel",
]
