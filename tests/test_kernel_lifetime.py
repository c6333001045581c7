"""A finished run frees its kernel by reference counting.

The kernel object graph holds no reference cycle (DESIGN.md section 2,
"Who owns what"): nothing in a kernel points back at what owns it, the
kernel owns its daemons, and the engine's queue is never an object's
only owner.  So dropping the last reference to a run's result frees the
kernel at once, with no wait for the cyclic collector -- which matters
where many kernels share one process (sweep workers, the fuzzer, replay
sweeps, this suite).

Each guard runs an entry point with the collector off and then asks it
for the cyclic garbage left behind: there must be none.  The daemon
tests pin who keeps a daemon ticking when its caller keeps nothing.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
import weakref

import pytest

from repro.bench.targets import execute_point
from repro.check.fuzz import make_schedule, run_schedule
from repro.policy.competitive import MigrationDaemon
from repro.point import point_kernel, point_program
from repro.replay import record_spec, replay_trace
from repro.runtime.run import make_kernel, run_program
from repro.telemetry.sampler import SimTimeSampler
from repro.workloads.gauss import GaussianElimination

GAUSS = {"kind": "run", "workload": "gauss", "machine": 4,
         "args": {"n": 16, "n_threads": 2, "verify_result": False}}
COMPETITIVE = {"kind": "run", "workload": "roundrobin", "machine": 4,
               "competitive": True, "competitive_period": 20e6,
               "args": {"n_threads": 4, "operations": 8}}
SEQUENT = {"kind": "sequent", "workload": "mergesort", "machine": 4,
           "args": {"n": 256, "n_threads": 2, "verify_result": False}}


def _bundle():
    return record_spec(GAUSS)[0]


def _run_program():
    kernel = make_kernel(4, defrost_period=1e6, metrics=True)
    return run_program(kernel, point_program(GAUSS))


def _fuzz_schedule():
    ops = make_schedule(random.Random(7), 60, 3, 3)
    return run_schedule(ops, tie_seed=7, trace=True)


ENTRY_POINTS = {
    "run_program": _run_program,
    "record_spec": lambda: record_spec(GAUSS),
    "replay exact": lambda b: replay_trace(b, mode="exact"),
    "replay fast": lambda b: replay_trace(b, mode="fast"),
    "replay exact traced": lambda b: replay_trace(
        b, mode="exact", trace=True, metrics=True, probe=True),
    "point run": lambda: execute_point(GAUSS, 1),
    "point replay": lambda: execute_point(
        {"kind": "replay", "check_expected": True, "record": GAUSS}, 1),
    "point sequent": lambda: execute_point(SEQUENT, 1),
    "point competitive": lambda: execute_point(COMPETITIVE, 1),
    "fuzz schedule": _fuzz_schedule,
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_a_finished_run_leaves_no_cyclic_garbage(name):
    entry = ENTRY_POINTS[name]
    args = (_bundle(),) if name.startswith("replay") else ()
    gc.collect()
    gc.disable()
    try:
        result = entry(*args)
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_three_points_in_one_process_hold_one_kernel_at_most():
    """With the collector off, a point's kernel is gone before the next
    point starts: the third leaves the traced heap where the first did.
    (A kernel of this point is ~1.6 MB; the margin is 64 KiB.)"""
    spec = {"kind": "run", "workload": "gauss", "machine": 4,
            "args": {"n": 32, "n_threads": 4, "verify_result": False}}
    execute_point(spec, 1)  # imports and first-use caches
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        sizes = []
        for _ in range(3):
            execute_point(spec, 1)
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        gc.enable()
    assert sizes[2] - sizes[0] < 64 * 1024, sizes


# -- who keeps a daemon ticking ---------------------------------------------


def test_a_competitive_point_kernel_runs_its_daemon(monkeypatch):
    """``point_kernel`` keeps nothing of the section 8 daemon it starts:
    the kernel alone must keep it sweeping."""
    runs = []
    sweep = MigrationDaemon.run_once
    monkeypatch.setattr(MigrationDaemon, "run_once",
                        lambda self: runs.append(1) or sweep(self))
    spec = dict(COMPETITIVE, competitive_period=5e6)
    kernel = point_kernel(spec)
    result = run_program(kernel, point_program(spec))
    assert len(runs) == int(result.sim_time_ns // 5e6) > 0


def test_a_started_sampler_dropped_by_its_caller_still_samples():
    kernel = make_kernel(4)
    sampler = SimTimeSampler(kernel, period_ms=1.0)
    sampler.start()
    dropped = weakref.ref(sampler)
    del sampler
    result = run_program(kernel, GaussianElimination(n=16, n_threads=4))
    sampler = dropped()
    assert sampler is not None
    assert len(sampler) == int(result.sim_time_ns // 1e6) > 0


def test_the_engine_holds_the_next_defrost_tick_after_a_run():
    """A run ends with the defrost daemon's next tick still queued (one
    pending event, as before the queue held it weakly), and the tick
    still runs the daemon."""
    kernel = make_kernel(4, defrost_period=1e6)
    run_program(kernel, GaussianElimination(n=16, n_threads=4))
    engine, daemon = kernel.engine, kernel.coherent.defrost
    assert engine.pending_events == 1
    runs = daemon.runs
    assert engine.step()
    assert daemon.runs == runs + 1 and engine.pending_events == 1
