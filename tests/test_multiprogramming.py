"""Multiprogramming: several programs sharing one machine and kernel.

Exercises paths single-program runs cannot: multiple address spaces with
disjoint activity masks (deferred shootdown application), oversubscribed
processors (CPU-resource time sharing), and protocol traffic from
unrelated workloads interleaving on shared memory modules.
"""

import numpy as np
import pytest

from repro import make_kernel
from repro.runtime import (
    Compute,
    Program,
    ProgramAPI,
    Read,
    Write,
)
from repro.runtime.executor import ThreadProcess
from repro.runtime.run import run_threads
from repro.workloads import GaussianElimination, MergeSort


def run_together(kernel, programs, max_events=None):
    """Run several programs concurrently on one kernel."""
    apis = []
    processes = []
    for program in programs:
        api = ProgramAPI(kernel)
        program.setup(api)
        apis.append(api)
        for spec in api.thread_specs:
            processes.append(ThreadProcess(kernel, spec.thread, spec.body))
    thread_results = run_threads(
        kernel, processes, "+".join(p.name for p in programs), max_events
    )
    results = {}
    i = 0
    for program, api in zip(programs, apis):
        n = len(api.thread_specs)
        chunk = thread_results[i: i + n]
        program.verify(chunk)
        results[program.name] = chunk
        i += n
    kernel.check_invariants()
    return results


def test_two_programs_in_separate_address_spaces():
    kernel = make_kernel(n_processors=8)
    gauss = GaussianElimination(n=16, n_threads=4)
    sort = MergeSort(n=1024, n_threads=4)
    # both get their own address space via their own ProgramAPI; spawn
    # the sort on processors 4..7 by construction of tids
    class ShiftedSort(MergeSort):
        def setup(self, api):
            super().setup(api)
            for spec in api.thread_specs:
                kernel.threads.migrate(spec.thread, 4 + spec.thread.tid
                                       % 4)
    results = run_together(kernel, [gauss, sort])
    assert len(results) == 2


def test_oversubscribed_processor_time_shares():
    """Two compute-bound threads pinned to one processor take twice as
    long as one; a thread on another processor is unaffected."""

    class Pinned(Program):
        name = "pinned"

        def __init__(self, processor, ns):
            self.processor = processor
            self.ns = ns

        def setup(self, api):
            api.spawn(self.processor, self.body, name="a")
            api.spawn(self.processor, self.body, name="b")

        def body(self, env):
            for _ in range(10):
                yield Compute(self.ns)
            return env.kernel.engine.now

    kernel = make_kernel(n_processors=2)
    prog = Pinned(0, 1000)
    results = run_together(kernel, [prog])
    finish_times = results["pinned"]
    # combined work is 20 * 1000 ns serialized on one cpu
    assert max(finish_times) == 20_000


def test_unrelated_programs_contend_only_through_memory():
    """Two single-thread programs on different processors with private
    data never interrupt each other."""

    class Worker(Program):
        name = "worker"

        def __init__(self, processor):
            self.processor = processor
            self.name = f"worker{processor}"

        def setup(self, api):
            arena = api.arena(2, label=f"w{self.processor}")
            self.va = arena.alloc(128, page_aligned=True)
            api.spawn(self.processor, self.body)

        def body(self, env):
            for i in range(20):
                yield Write(self.va + i, i)
                data = yield Read(self.va + i, 1)
                assert int(data[0]) == i
            return "done"

    kernel = make_kernel(n_processors=4)
    run_together(kernel, [Worker(0), Worker(2)])
    totals = kernel.machine.interrupts.totals()
    assert totals["ipis_received"] == 0


def test_deferred_shootdown_across_programs():
    """A shootdown for an address space not active on a processor is
    deferred; multiprogramming makes such processors exist naturally."""

    class Toucher(Program):
        name = "toucher"

        def setup(self, api):
            self.api = api
            arena = api.arena(1, label="shared")
            self.va = arena.alloc(16)
            self.arena = arena
            api.spawn(0, self.body_a, name="a")
            api.spawn(1, self.body_b, name="b")

        def body_a(self, env):
            yield Write(self.va, 1)
            yield Compute(100_000)
            return "a"

        def body_b(self, env):
            yield Read(self.va, 1)
            # long wait: thread exits later than the writer's protocol
            yield Compute(50_000_000)
            return "b"

    kernel = make_kernel(n_processors=4)
    prog = Toucher()
    run_together(kernel, [prog])
    # the program completed and invariants held across the deactivation
    # window (checked inside run_together)
