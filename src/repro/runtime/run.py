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
from .executor import ThreadProcess
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

    The one thread driver: live runs, recording runs, replays and the
    Sequent baseline all come through here; ``kernel`` is read only for
    its ``engine``, and a process's processor only through its row
    (``p.rows[p.thread.processor]``).  A crash re-raises as
    ``ProcessCrashed``; a stall or a thread that never finished raises
    ``error``, named after ``name``.  ``stall_limit_ns`` bounds how
    long (in simulated time) the run may go with every thread suspended
    and only daemon activity in the event queue -- a deadlocked program
    is reported instead of spinning on defrost ticks forever.
    """
    engine = kernel.engine
    done = not processes

    def _note_finish(p: ThreadProcess) -> None:
        # the last thread to finish, or the first to crash, ends the run
        # through the flag Engine.run checks: nothing is called per event
        nonlocal done
        if p.error is not None or all(q.finished for q in processes):
            done = True
            engine.stop()

    for proc in processes:
        proc.on_finish(_note_finish)
        proc.start()

    # The stall scan runs between slices of Engine.run, not as an event:
    # events_executed is part of every recorded result and must not
    # depend on how a run is watched.  A slice ends one stall limit after
    # the latest time a cpu is committed to be busy; finding no later
    # commitment then, a whole limit passed with only daemon activity.
    last_activity = engine.now
    while not done:
        executed = engine.run(
            until=last_activity + stall_limit_ns, max_events=max_events)
        if done or not engine.pending_events:
            break
        if max_events is not None:
            max_events -= executed
        busy = max(p.rows[p.thread.processor].busy_until
                   for p in processes)
        if busy <= last_activity:
            raise error(
                f"{name}: no thread progress for "
                f"{stall_limit_ns / 1e9:.1f} simulated seconds; "
                f"still running: "
                f"{[p.name for p in processes if not p.finished]} "
                "(deadlock in the simulated program?)"
            )
        last_activity = busy
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
        ThreadProcess(kernel, spec.thread, spec.body)
        for spec in api.thread_specs
    ]
    results = run_threads(
        kernel, processes, program.name, max_events, stall_limit_ns
    )
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
    aggregate); ``False`` (the default) wires a disabled one, which
    costs the protocol nothing (``CoherentMemorySystem``).
    """
    if params is None:
        params = MachineParams(n_processors=n_processors).scaled(
            **param_overrides
        )
    elif param_overrides:
        params = params.scaled(**param_overrides)
    return Kernel(
        params=params,
        policy=policy,
        defrost_enabled=defrost_enabled,
        defrost_period=defrost_period,
        trace=trace,
        metrics=metrics,
    )
