"""Speedup-curve measurement: the paper's Figures 1, 5 and 6.

Runs a workload factory across processor counts on fresh kernels and
reports speedup relative to the one-processor run, the way the paper's
speedup plots are constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..policy.base import ReplicationPolicy
from ..kernel.kernel import Kernel
from ..runtime.program import Program
from ..runtime.run import RunResult, make_kernel, run_program


@dataclass
class SpeedupPoint:
    """One (processors, time) measurement."""

    processors: int
    sim_time_ns: int
    speedup: float
    result: Optional[RunResult] = None

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time_ns / 1e6

    @property
    def efficiency(self) -> float:
        if self.processors <= 0:
            return 0.0
        return self.speedup / self.processors

    def to_dict(self) -> dict:
        """JSON-able form (drops the heavyweight RunResult)."""
        return {
            "processors": self.processors,
            "sim_time_ns": self.sim_time_ns,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
        }


@dataclass
class SpeedupCurve:
    """A full speedup-vs-processors measurement."""

    label: str
    points: list[SpeedupPoint] = field(default_factory=list)

    @property
    def processors(self) -> list[int]:
        return [pt.processors for pt in self.points]

    @property
    def speedups(self) -> list[float]:
        return [pt.speedup for pt in self.points]

    def at(self, p: int) -> SpeedupPoint:
        for pt in self.points:
            if pt.processors == p:
                return pt
        raise KeyError(f"no measurement at p={p}")

    def to_dict(self) -> dict:
        """JSON-able form, used by the BENCH_*.json trajectory."""
        return {
            "label": self.label,
            "points": [pt.to_dict() for pt in self.points],
        }

    @classmethod
    def from_times(
        cls, label: str, times: dict[int, int], baseline: Optional[int] = None
    ) -> "SpeedupCurve":
        """Build a curve from raw ``{processors: sim_time_ns}`` pairs.

        ``baseline`` defaults to the smallest processor count measured;
        speedup is normalized so speedup(baseline) == baseline, as in
        :func:`measure_speedup`.  Zero times produce speedup 0 rather
        than dividing by zero.
        """
        if not times:
            raise ValueError("need at least one measurement")
        counts = sorted(times)
        if baseline is None:
            baseline = counts[0]
        if baseline not in times:
            raise ValueError(f"baseline p={baseline} was not measured")
        base_time = times[baseline] * baseline
        curve = cls(label=label)
        for p in counts:
            t = times[p]
            curve.points.append(
                SpeedupPoint(
                    processors=p,
                    sim_time_ns=t,
                    speedup=base_time / t if t else 0.0,
                )
            )
        return curve

    def format(self) -> str:
        lines = [
            f"{self.label}: speedup vs processors",
            f"  {'p':>4} {'time ms':>12} {'speedup':>8} {'eff':>6}",
        ]
        for pt in self.points:
            lines.append(
                f"  {pt.processors:>4} {pt.sim_time_ms:>12.3f} "
                f"{pt.speedup:>8.2f} {pt.efficiency:>6.2f}"
            )
        return "\n".join(lines)


def measure_speedup(
    program_factory: Callable[[int], Program],
    processor_counts: Sequence[int] = (1, 2, 4, 8, 12, 16),
    kernel_factory: Optional[Callable[[int], Kernel]] = None,
    label: str = "",
    keep_results: bool = False,
    policy_factory: Optional[Callable[[], ReplicationPolicy]] = None,
    machine_processors: Optional[int] = None,
) -> SpeedupCurve:
    """Measure a speedup curve.

    ``program_factory(p)`` builds the workload for ``p`` threads.  As in
    the paper's experiments, the *machine* keeps its full size
    (``machine_processors``, default the largest count measured) while
    the program uses ``p`` of its processors -- this matters for the
    static-placement baselines, whose data stays scattered over all the
    memory modules even in the one-processor run.  ``kernel_factory(p)``
    overrides kernel construction entirely.  The first entry of
    ``processor_counts`` is the speedup baseline (normally 1).
    """
    counts = list(processor_counts)
    if not counts:
        raise ValueError("need at least one processor count")
    if machine_processors is None:
        machine_processors = max(counts)
    curve = SpeedupCurve(label=label or "speedup")
    base_time: Optional[int] = None
    for p in counts:
        if kernel_factory is not None:
            kernel = kernel_factory(p)
        else:
            policy = policy_factory() if policy_factory else None
            kernel = make_kernel(
                n_processors=machine_processors, policy=policy
            )
        result = run_program(kernel, program_factory(p))
        if base_time is None:
            base_time = result.sim_time_ns * counts[0]
            # normalize: base is time(p0) * p0 so speedup(p0) == p0
        speedup = base_time / result.sim_time_ns if result.sim_time_ns else 0
        curve.points.append(
            SpeedupPoint(
                processors=p,
                sim_time_ns=result.sim_time_ns,
                speedup=speedup,
                result=result if keep_results else None,
            )
        )
    return curve
