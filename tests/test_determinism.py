"""Determinism that is not a row of ``test_matrix.py``: a synchronous
chain never nests across events, a serial and a parallel sweep emit
equal BENCH documents, and the base seed moves point seeds only.
"""

import pytest

import repro.baselines.sequent as sequent_mod
import repro.machine.machine as machine_mod
from repro.bench import run_bench, strip_wall_clock
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

    results = []
    for fast_path in (True, False):
        for module in (machine_mod, sequent_mod):
            monkeypatch.setattr(
                module, "Engine", lambda: Engine(fast_path=fast_path))
        results.append(run())
    fast, slow = results
    assert fast == slow
    assert fast[1] == SynchronousChain.rounds
    assert fast[0] == [sum(range(SynchronousChain.rounds))]


def test_fast_path_engine_flag_wires_through():
    assert Engine()._fast_path is True
    assert Engine(fast_path=False)._fast_path is False


@pytest.mark.parametrize("target", ["ablation_rpc", "generated_matrix"])
def test_serial_and_parallel_sweep_emit_equal_documents(target):
    docs_serial, _ = run_bench(scale="smoke", jobs=1, filter_pattern=target)
    docs_parallel, _ = run_bench(scale="smoke", jobs=2,
                                 filter_pattern=target)
    assert strip_wall_clock(docs_serial[target]) == \
        strip_wall_clock(docs_parallel[target])


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
