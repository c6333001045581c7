"""Tests for the run harness itself."""

import pytest

from repro import make_kernel, run_program
from repro.policy.fixed import NeverCachePolicy
from repro.replay import ReplayError, record_program, replay_trace
from repro.replay.bundle import K_FIRE
from repro.runtime import (
    Broadcast,
    Compute,
    Program,
    ThreadProcess,
    WaitFor,
    WaitNewer,
)
from repro.runtime.run import run_threads
from repro.sim import SimEvent


class Trivial(Program):
    name = "trivial"

    def __init__(self, n=2):
        self.n = n

    def setup(self, api):
        for p in range(self.n):
            api.spawn(p, self.body, name=f"t{p}")

    def body(self, env):
        yield Compute(1000 * (env.tid + 1))
        return env.tid


def test_run_result_fields():
    kernel = make_kernel(n_processors=2)
    result = run_program(kernel, Trivial())
    assert result.sim_time_ns == 2000  # the slowest thread
    assert result.sim_time_ms == pytest.approx(0.002)
    assert result.thread_results == [0, 1]
    assert result.report is not None
    assert "trivial" in repr(result)


def test_no_threads_rejected():
    class Empty(Program):
        name = "empty"

        def setup(self, api):
            pass

    with pytest.raises(ValueError):
        run_program(make_kernel(n_processors=2), Empty())


def test_verify_failure_propagates():
    class Failing(Trivial):
        def verify(self, results):
            raise AssertionError("nope")

    with pytest.raises(AssertionError, match="nope"):
        run_program(make_kernel(n_processors=2), Failing())


def test_thread_crash_reported():
    class Crashing(Program):
        name = "crashing"

        def setup(self, api):
            api.spawn(0, self.body)

        def body(self, env):
            yield Compute(10)
            raise RuntimeError("thread died")

    from repro.sim import ProcessCrashed

    with pytest.raises(ProcessCrashed):
        run_program(make_kernel(n_processors=2), Crashing())


def test_deadlock_detected_via_stall_limit():
    class Deadlocked(Program):
        name = "deadlocked"

        def setup(self, api):
            self.event = SimEvent(api.engine, "never")
            api.spawn(0, self.body)

        def body(self, env):
            yield WaitFor(self.event)  # nobody ever fires this

    kernel = make_kernel(n_processors=2)  # defrost keeps the queue alive
    with pytest.raises(RuntimeError, match="no thread progress"):
        run_program(kernel, Deadlocked(), stall_limit_ns=2e9)


class Waiting(Program):
    """One thread finishes; the other waits on a channel nobody fires."""

    name = "waiting"

    def setup(self, api):
        self.channel = Broadcast(api.engine, "never")
        api.spawn(0, self.done, name="done")
        api.spawn(1, self.stuck, name="stuck")

    def done(self, env):
        yield Compute(1000)

    def stuck(self, env):
        yield WaitNewer(self.channel, 0)


class Woken(Waiting):
    def done(self, env):
        yield Compute(1000)
        self.channel.fire()


def _replay_unfired(kernel_args, **kwargs):
    """Replay a recording of ``Woken`` with its fire taken out."""
    bundle, _ = record_program(make_kernel(n_processors=2), Woken())
    bundle.config["workload"] = "waiting"
    bundle.streams = [s[s[:, 0] != K_FIRE] for s in bundle.streams]
    return replay_trace(
        bundle, defrost=kernel_args.get("defrost_enabled"), **kwargs
    )


FRONT_ENDS = [
    pytest.param(
        lambda kernel_args, **kwargs: run_program(
            make_kernel(n_processors=2, **kernel_args), Waiting(), **kwargs
        ),
        RuntimeError, id="run_program",
    ),
    pytest.param(
        lambda kernel_args, **kwargs: record_program(
            make_kernel(n_processors=2, **kernel_args), Waiting(), **kwargs
        ),
        RuntimeError, id="record_program",
    ),
    pytest.param(_replay_unfired, ReplayError, id="replay_trace"),
]


@pytest.mark.parametrize("front_end, error", FRONT_ENDS)
def test_stall_names_the_running_threads(front_end, error):
    # defrost ticks keep the queue alive, so only the detector ends this
    with pytest.raises(error, match="waiting: no thread progress") as info:
        front_end({}, stall_limit_ns=2e9)
    assert "still running: ['stuck']" in str(info.value)
    assert Broadcast.recorder is None


@pytest.mark.parametrize("front_end, error", FRONT_ENDS)
def test_drained_queue_names_the_unfinished_threads(front_end, error):
    with pytest.raises(
        error, match=r"waiting: threads never finished: \['stuck'\]"
    ):
        front_end({"defrost_enabled": False})


def test_stall_detector_counts_a_busy_processor_as_progress():
    """The stall scan reads each process's processor row: compute that
    keeps it busy must count as progress."""
    kernel = make_kernel(n_processors=2)
    aspace = kernel.vm.create_address_space()

    def body():
        for _ in range(200):
            yield Compute(1e6)

    processes = [
        ThreadProcess(
            kernel, kernel.threads.spawn(aspace.asid, 0, name="busy"),
            body(),
        )
    ]
    # 200 ms of compute in 1 ms steps, against a 50 ms stall limit
    run_threads(kernel, processes, "busy-cpu", stall_limit_ns=50e6)
    assert kernel.engine.now == 200e6


def test_how_often_a_run_is_watched_changes_nothing_in_it():
    """The stall scan runs between slices of Engine.run and schedules
    nothing: a run cut into many slices executes the same events and
    ends at the same time as one watched in a single slice."""
    class Long(Trivial):
        def body(self, env):
            for _ in range(60):
                yield Compute(2e8)  # 12 simulated seconds, 12 defrosts

    seen = []
    for limit in (2e9, 30e9):
        kernel = make_kernel(n_processors=2)
        result = run_program(kernel, Long(), stall_limit_ns=limit)
        seen.append((kernel.engine.events_executed, result.sim_time_ns,
                     kernel.engine.now, kernel.coherent.defrost.runs))
    assert seen[0] == seen[1]
    assert seen[0][1:] == (12 * 10**9, 12 * 10**9, 12)


def test_make_kernel_overrides():
    kernel = make_kernel(n_processors=3, page_bytes=8192)
    assert kernel.params.n_processors == 3
    assert kernel.params.words_per_page == 2048


def test_make_kernel_policy_injection():
    policy = NeverCachePolicy()
    kernel = make_kernel(n_processors=2, policy=policy)
    assert kernel.policy is policy


def test_invariants_checked_after_run():
    kernel = make_kernel(n_processors=2)
    result = run_program(kernel, Trivial())
    assert result.sim_time_ns > 0
