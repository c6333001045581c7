"""The Uniform System baseline (paper section 5.1).

BBN's Uniform System library scatters shared data uniformly across the
machine's memory modules to spread contention, and programs access it
remotely in place; careful programmers hand-copy hot data (like the pivot
row) into local buffers.  The paper compares PLATINUM's Gauss (speedup
13.5 at 16 processors) against LeBlanc's most efficient coarse-grain
Uniform System version (10.6).

We reproduce that configuration as: the same Gaussian elimination
program, with

* the matrix pages placed round-robin over all memory modules
  ("interleave" placement) and *never* migrated or replicated
  (:class:`~repro.policy.fixed.NeverCachePolicy` with defrost off, the
  ``uniform`` row of ``repro.point.SYSTEMS`` -- the Uniform System has
  no coherent memory), and
* the hand optimization of copying each pivot row into a private local
  buffer every round.

The machine keeps its full module count at every thread count, as on the
real Butterfly: the one-processor Uniform System run still reaches across
the switch for 15/16 of its data.
"""

from __future__ import annotations

from typing import Optional

from ..workloads.gauss import GaussianElimination


class UniformSystemGauss(GaussianElimination):
    """Gaussian elimination the Uniform System way."""

    name = "gauss-uniform-system"

    def __init__(
        self,
        n: int = 128,
        n_threads: Optional[int] = None,
        seed: int = 1989,
        **kwargs,
    ) -> None:
        kwargs.setdefault("matrix_placement", "interleave")
        kwargs.setdefault("pivot_to_local_buffer", True)
        kwargs.setdefault("pad_rows", False)
        super().__init__(n=n, n_threads=n_threads, seed=seed, **kwargs)
