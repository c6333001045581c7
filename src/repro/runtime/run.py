"""The run harness: execute a program on a PLATINUM kernel.

``run_program`` performs the whole experiment: program setup, thread
execution to completion, protocol invariant checking, and collection of
the kernel's post-mortem memory report -- returning everything a
benchmark or test needs in a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..core.instrumentation import MemoryReport
from ..policy.base import ReplicationPolicy
from ..kernel.kernel import Kernel
from ..machine.params import MachineParams
from .executor import ThreadProcess, _cpu_resource
from .program import Program, ProgramAPI


@dataclass
class RunResult:
    """Everything measured in one program run."""

    program: Program
    kernel: Kernel
    sim_time_ns: int
    thread_results: list[Any]
    report: MemoryReport

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time_ns / 1e6

    @property
    def sim_time_s(self) -> float:
        return self.sim_time_ns / 1e9

    def __repr__(self) -> str:
        return (
            f"<RunResult {self.program.name} {self.sim_time_ms:.3f} ms "
            f"faults={self.report.total_faults}>"
        )


def run_threads(
    kernel: Kernel,
    processes: list[ThreadProcess],
    name: str,
    max_events: Optional[int] = None,
    stall_limit_ns: float = 30e9,
    error: type[Exception] = RuntimeError,
) -> list[Any]:
    """Start ``processes`` and run the engine until every one finished
    or one crashed; returns their results in order.

    The one thread driver: live runs, recording runs and replays all
    come through here.  A crash re-raises as ``ProcessCrashed``; a
    stall or a thread that never finished raises ``error``, named
    after ``name``.  ``stall_limit_ns`` bounds how long (in simulated
    time) the run may go with every thread suspended and only daemon
    activity in the event queue -- a deadlocked program is reported
    instead of spinning on defrost ticks forever.
    """
    # O(1) per-event completion tracking: counting finish callbacks beats
    # scanning every process after every event (the scan was ~20% of a
    # whole run's wall clock)
    n_threads = len(processes)
    state = {"finished": 0, "crashed": False}

    def _note_finish(p: ThreadProcess) -> None:
        state["finished"] += 1
        if p.error is not None:
            state["crashed"] = True

    for proc in processes:
        proc.on_finish(_note_finish)
        proc.start()

    last_activity = [kernel.engine.now]
    events_since_check = [0]

    def stop_when() -> bool:
        if state["crashed"] or state["finished"] == n_threads:
            return True
        # the stall check scans every thread's cpu; amortize it -- the
        # stall limit is simulated seconds, so a 64-event granularity
        # changes only how promptly the diagnostic fires
        events_since_check[0] += 1
        if events_since_check[0] & 63:
            return False
        busy = max(p.cpu.busy_until for p in processes)
        if busy > last_activity[0]:
            last_activity[0] = busy
        if kernel.engine.now - last_activity[0] > stall_limit_ns:
            raise error(
                f"{name}: no thread progress for "
                f"{stall_limit_ns / 1e9:.1f} simulated seconds; "
                f"still running: "
                f"{[p.name for p in processes if not p.finished]} "
                "(deadlock in the simulated program?)"
            )
        return False

    kernel.engine.run(max_events=max_events, stop_when=stop_when)
    results = [p.check() for p in processes]
    unfinished = [p.name for p in processes if not p.finished]
    if unfinished:
        raise error(
            f"{name}: threads never finished: {unfinished} "
            "(deadlock or starvation in the simulated program)"
        )
    return results


def run_program(
    kernel: Kernel,
    program: Program,
    max_events: Optional[int] = None,
    check_invariants: bool = True,
    stall_limit_ns: float = 30e9,
) -> RunResult:
    """Run ``program`` to completion on ``kernel``.

    ``max_events`` and ``stall_limit_ns`` are :func:`run_threads`'s.
    """
    api = ProgramAPI(kernel)
    program.setup(api)
    if not api.thread_specs:
        raise ValueError(f"{program.name}: setup spawned no threads")
    start = kernel.engine.now
    processes = [
        ThreadProcess(
            kernel, spec.thread, spec.body,
            _cpu_resource(kernel, spec.thread.processor),
        )
        for spec in api.thread_specs
    ]
    results = run_threads(
        kernel, processes, program.name, max_events, stall_limit_ns
    )
    if check_invariants:
        kernel.check_invariants()
    program.verify(results)
    return RunResult(
        program=program,
        kernel=kernel,
        sim_time_ns=kernel.engine.now - start,
        thread_results=results,
        report=kernel.report(),
    )


def make_kernel(
    n_processors: int = 16,
    params: Optional[MachineParams] = None,
    policy: Optional[ReplicationPolicy] = None,
    defrost_enabled: bool = True,
    defrost_period: Optional[float] = None,
    trace: bool = False,
    metrics=False,
    **param_overrides,
) -> Kernel:
    """Convenience: a fresh kernel on a fresh Butterfly Plus-like machine.

    ``metrics`` enables the telemetry metrics registry: ``True`` creates
    an enabled :class:`~repro.telemetry.MetricsRegistry`; an existing
    registry instance is used as-is (share one across kernels to
    aggregate); ``False`` (the default) wires a disabled registry whose
    instrument writes cost one branch.
    """
    from ..telemetry.metrics import MetricsRegistry

    if params is None:
        params = MachineParams(n_processors=n_processors).scaled(
            **param_overrides
        )
    elif param_overrides:
        params = params.scaled(**param_overrides)
    if metrics is True:
        metrics = MetricsRegistry(enabled=True)
    elif metrics is False:
        metrics = None
    return Kernel(
        params=params,
        policy=policy,
        defrost_enabled=defrost_enabled,
        defrost_period=defrost_period,
        trace=trace,
        metrics=metrics,
    )
