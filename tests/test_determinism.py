"""Determinism regressions: the engine fast path and the sweep runner
must never change simulated results.

Three invariants are pinned:

* a fixed-seed workload run is bit-stable: re-running it produces a
  byte-identical protocol trace and identical counters;
* the same-timestamp ready-queue fast path (``Engine(fast_path=True)``,
  the default) produces exactly the results of the plain-heap engine --
  the same trace, counters, clock, event count and sampler rows, queue
  depth included, live, replayed and on the Sequent baseline;
* a serial sweep and a parallel sweep of the same targets emit equal
  BENCH documents once wall-clock fields are stripped.
"""

import hashlib
from pathlib import Path

import pytest

import repro.baselines.sequent as sequent_mod
import repro.machine.machine as machine_mod
import repro.point as point_mod
import repro.replay.replayer as replayer_mod
from repro.analysis import run_counters
from repro.bench import run_bench, strip_wall_clock
from repro.replay import record_spec, replay_trace
from repro.sim import Engine
from repro.runtime import (
    Broadcast,
    Compute,
    GetTime,
    Program,
    WaitNewer,
    make_kernel,
    run_program,
)
from repro.telemetry import SimTimeSampler
from repro.workloads import (
    GaussianElimination,
    RoundRobinSharing,
    WorkloadSpec,
)
from repro.workloads.generate import bench_spec_for, corpus_paths, run_spec

from tests.conftest import machine_state, state_digest

CORPUS = Path(__file__).parent / "corpus"


def _trace_hash(kernel) -> str:
    """A stable digest of the full protocol event sequence."""
    digest = hashlib.sha256()
    for event in kernel.tracer.events:
        digest.update(repr(
            (event.time, event.kind.value, event.cpage_index,
             event.processor, sorted(event.detail.items()))
        ).encode())
    return digest.hexdigest()


def _run_gauss(n=24, threads=4, seed=1989):
    kernel = make_kernel(n_processors=4, trace=True)
    result = run_program(kernel, GaussianElimination(
        n=n, n_threads=threads, seed=seed, verify_result=False,
    ))
    return kernel, result


def test_fixed_seed_run_is_bit_stable():
    kernel_a, result_a = _run_gauss()
    kernel_b, result_b = _run_gauss()
    assert _trace_hash(kernel_a) == _trace_hash(kernel_b)
    assert state_digest(kernel_a) == state_digest(kernel_b)
    assert result_a.sim_time_ns == result_b.sim_time_ns
    assert run_counters(result_a) == run_counters(result_b)


def test_trace_hash_is_sensitive_to_the_run():
    # sanity for the digest itself: a different problem size must
    # produce a different event sequence (the workload seed alone only
    # changes matrix *values*, not the simulated access pattern)
    kernel_a, _ = _run_gauss(n=24)
    kernel_b, _ = _run_gauss(n=32)
    assert _trace_hash(kernel_a) != _trace_hash(kernel_b)


def _sampled(kernel) -> SimTimeSampler:
    """A sampler ticking on ``kernel``'s engine: its rows see the engine
    from inside the run (``queue_depth``, ``events_interval``)."""
    sampler = SimTimeSampler(kernel, period_ms=0.05)
    sampler.start()
    return sampler


def _fast_path_ab(monkeypatch, run):
    """``run()`` with the engine fast path on, then off (on both
    machines); the two results."""
    results = []
    for fast_path in (True, False):
        for module in (machine_mod, sequent_mod):
            monkeypatch.setattr(
                module, "Engine", lambda: Engine(fast_path=fast_path))
        results.append(run())
    return results


@pytest.mark.parametrize("workload", ["gauss", "roundrobin"])
def test_engine_fast_path_changes_nothing(monkeypatch, workload):
    """The ready-deque tie fast path must be invisible: identical trace,
    counters, simulated time, machine state (the clock and the event
    count in it) and sampler rows with it on or off."""

    def run():
        kernel = make_kernel(n_processors=4, trace=True)
        sampler = _sampled(kernel)
        if workload == "gauss":
            program = GaussianElimination(n=24, n_threads=4,
                                          verify_result=False)
        else:
            program = RoundRobinSharing(n_threads=4, operations=16)
        result = run_program(kernel, program)
        return (_trace_hash(kernel), result.sim_time_ns,
                run_counters(result), machine_state(kernel),
                sampler.samples)

    fast, slow = _fast_path_ab(monkeypatch, run)
    assert fast == slow
    assert len(fast[4]) > 5  # the sampler saw the run


class SynchronousChain(Program):
    """One thread alone on the machine: ``GetTime``, ``Compute(1)`` and
    a satisfied ``WaitNewer``, many times over.  Two of the three resume
    the generator at once, inside the event that is running."""

    name = "synchronous-chain"
    rounds = 5000

    def setup(self, api):
        self.channel = Broadcast(api.engine, "chain")
        self.channel.fire()  # version 1: every wait below is satisfied
        api.spawn(0, self.body, name="chain")

    def body(self, env):
        total = 0
        for _ in range(self.rounds):
            total += yield GetTime()
            yield Compute(1)
            yield WaitNewer(self.channel, 0)
        return total


@pytest.mark.parametrize("machine", ["platinum", "sequent"])
def test_synchronous_resumes_never_nest_across_events(monkeypatch, machine):
    """15,000 ops in a row, live and on the Sequent baseline, finish
    with the plain-heap engine's result: a synchronous resume unwinds
    with the event it ran in, so the stack never grows with the run
    (a thread that went on to its next event in place, without a loop,
    would pass the interpreter's recursion limit here)."""

    def run():
        if machine == "platinum":
            kernel = make_kernel(n_processors=2, defrost_enabled=False)
            result = run_program(kernel, SynchronousChain())
            engine = kernel.engine
        else:
            result = sequent_mod.run_on_sequent(SynchronousChain(),
                                                n_processors=2)
            engine = result.machine.engine
        return (result.thread_results, result.sim_time_ns,
                engine.events_executed)

    fast, slow = _fast_path_ab(monkeypatch, run)
    assert fast == slow
    assert fast[1] == SynchronousChain.rounds
    assert fast[0] == [sum(range(SynchronousChain.rounds))]


def test_fast_path_engine_flag_wires_through():
    assert Engine()._fast_path is True
    assert Engine(fast_path=False)._fast_path is False


def test_serial_and_parallel_sweep_emit_equal_documents():
    docs_serial, _ = run_bench(scale="smoke", jobs=1,
                               filter_pattern="ablation_rpc")
    docs_parallel, _ = run_bench(scale="smoke", jobs=2,
                                 filter_pattern="ablation_rpc")
    assert strip_wall_clock(docs_serial["ablation_rpc"]) == \
        strip_wall_clock(docs_parallel["ablation_rpc"])


def test_same_seed_runs_export_byte_identical_jsonl():
    """Two same-seed runs streaming through JsonlTraceSink must write
    byte-identical files, and the metrics registry must serialize
    byte-identically too."""
    import io

    from repro.telemetry import JsonlTraceSink

    def run():
        kernel = make_kernel(n_processors=4, metrics=True, trace=True)
        buf = io.StringIO()
        kernel.tracer.add_sink(JsonlTraceSink(buf))
        run_program(kernel, GaussianElimination(
            n=24, n_threads=4, seed=1989, verify_result=False,
        ))
        kernel.tracer.close_sinks()
        return buf.getvalue(), kernel.metrics.to_jsonl()

    trace_a, metrics_a = run()
    trace_b, metrics_b = run()
    assert trace_a == trace_b
    assert metrics_a == metrics_b
    assert trace_a  # non-vacuous: something was exported
    assert metrics_a


def test_generated_workload_is_bit_stable(generated_workload):
    """Generated programs get the same guarantee as hand-written ones:
    two runs of the same spec are trace-identical."""
    spec, make_program = generated_workload

    def run():
        kernel = make_kernel(n_processors=spec.machine, trace=True)
        result = run_program(kernel, make_program())
        return _trace_hash(kernel), result.sim_time_ns, \
            run_counters(result), state_digest(kernel)

    assert run() == run()


def test_generated_workload_telemetry_off_matches_on(generated_workload):
    """Telemetry must stay invisible on generated programs too."""
    spec, make_program = generated_workload

    def run(metrics):
        kernel = make_kernel(n_processors=spec.machine, trace=True,
                             metrics=metrics)
        result = run_program(kernel, make_program())
        return _trace_hash(kernel), result.sim_time_ns, \
            run_counters(result), machine_state(kernel)

    assert run(False) == run(True)


def test_generated_workload_fast_path_changes_nothing(
        monkeypatch, generated_workload):
    spec, make_program = generated_workload

    def run():
        kernel = make_kernel(n_processors=spec.machine, trace=True)
        sampler = _sampled(kernel)
        result = run_program(kernel, make_program())
        return (_trace_hash(kernel), result.sim_time_ns,
                run_counters(result), machine_state(kernel),
                sampler.samples)

    fast, slow = _fast_path_ab(monkeypatch, run)
    assert fast == slow


_BUNDLES: dict = {}


@pytest.mark.parametrize("mode", ["live", "exact", "fast"])
@pytest.mark.parametrize(
    "spec", [WorkloadSpec.load(p) for p in corpus_paths(CORPUS)],
    ids=lambda s: s.name)
def test_fast_path_is_invisible_on_the_corpus(monkeypatch, spec, mode):
    """Every corpus spec, live and replayed in both modes: the default
    engine and ``Engine(fast_path=False)`` agree on simulated time,
    counters, the machine's state and every sampler row (and on the
    protocol trace, where one is kept)."""
    if spec.name not in _BUNDLES:  # recorded once, before any patching
        _BUNDLES[spec.name] = record_spec(bench_spec_for(spec))[0]
    bundle = _BUNDLES[spec.name]
    samplers = []
    build = point_mod.point_kernel

    def sampled_kernel(*args, **kwargs):
        kernel = build(*args, **kwargs)
        samplers.append(_sampled(kernel))
        return kernel

    monkeypatch.setattr(point_mod, "point_kernel", sampled_kernel)
    monkeypatch.setattr(replayer_mod, "point_kernel", sampled_kernel)

    def run():
        if mode == "live":
            kernel, result = run_spec(spec, trace=True)
            counters = run_counters(result)
        else:
            result = replay_trace(bundle, mode=mode, trace=mode == "exact")
            kernel, counters = result.kernel, result.counters
        return (_trace_hash(kernel), result.sim_time_ns, counters,
                machine_state(kernel), samplers.pop().samples)

    fast, slow = _fast_path_ab(monkeypatch, run)
    assert fast == slow


def test_generated_bench_serial_matches_parallel():
    """The generated matrix target, swept serially and in parallel,
    emits equal documents (the serial == parallel guarantee the other
    targets already have)."""
    docs_serial, _ = run_bench(scale="smoke", jobs=1,
                               filter_pattern="generated_matrix")
    docs_parallel, _ = run_bench(scale="smoke", jobs=2,
                                 filter_pattern="generated_matrix")
    assert strip_wall_clock(docs_serial["generated_matrix"]) == \
        strip_wall_clock(docs_parallel["generated_matrix"])


def test_telemetry_off_matches_untouched_run():
    """A kernel with the default (disabled) registry must produce
    exactly the results of the seed-era untouched kernel -- telemetry
    must be invisible when off *and* when on (it only reads state)."""
    from repro.telemetry import MetricsRegistry

    def run(metrics):
        kernel = make_kernel(n_processors=4, trace=True, metrics=metrics)
        result = run_program(kernel, GaussianElimination(
            n=24, n_threads=4, seed=1989, verify_result=False,
        ))
        return _trace_hash(kernel), result.sim_time_ns, \
            run_counters(result), machine_state(kernel)

    off = run(False)
    on = run(True)
    shared = run(MetricsRegistry(enabled=True))
    assert off == on == shared


def test_base_seed_changes_point_seeds_not_results():
    # simulation points carry their seed in the document, but the
    # workloads are seeded explicitly, so results must not drift
    docs_a, _ = run_bench(scale="smoke", jobs=1, base_seed=0,
                          filter_pattern="tab1")
    docs_b, _ = run_bench(scale="smoke", jobs=1, base_seed=99,
                          filter_pattern="tab1")
    a = strip_wall_clock(docs_a["tab1_costmodel"])
    b = strip_wall_clock(docs_b["tab1_costmodel"])
    seeds_a = [p.pop("seed") for p in a["points"]]
    seeds_b = [p.pop("seed") for p in b["points"]]
    assert seeds_a != seeds_b
    assert a == b
