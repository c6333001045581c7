"""Tests for the baseline systems: Uniform System, SMP, Sequent."""

import numpy as np
import pytest

from repro import run_program
from repro.baselines import (
    SMPGauss,
    SequentParams,
    UniformSystemGauss,
    run_on_sequent,
    smp_kernel,
    uniform_system_kernel,
)
from repro.runtime import Compute, Program
from repro.workloads import MergeSort, PrivateWork


# -- Uniform System -------------------------------------------------------------


def test_uniform_system_gauss_correct():
    kernel = uniform_system_kernel(4)
    run_program(kernel, UniformSystemGauss(n=16, n_threads=4))


def test_uniform_system_never_replicates():
    kernel = uniform_system_kernel(4)
    result = run_program(
        kernel, UniformSystemGauss(n=16, n_threads=4, verify_result=False)
    )
    matrix_rows = [
        r for r in result.report.rows if r.label.startswith("matrix")
    ]
    assert all(r.replications == 0 for r in matrix_rows)
    assert all(r.migrations == 0 for r in matrix_rows)


def test_uniform_system_matrix_scattered():
    kernel = uniform_system_kernel(4)
    # n=64 so the (unpadded) matrix spans several pages
    prog = UniformSystemGauss(n=64, n_threads=4, verify_result=False)
    run_program(kernel, prog)
    modules = set()
    for cpage in prog.matrix_arena.obj.cpages:
        modules.update(cpage.frames.keys())
    assert len(modules) >= 3  # spread over (nearly) all modules


def test_uniform_system_mostly_remote():
    kernel = uniform_system_kernel(4)
    result = run_program(
        kernel, UniformSystemGauss(n=16, n_threads=4, verify_result=False)
    )
    assert result.report.remote_words > result.report.local_words


# -- SMP message passing --------------------------------------------------------------


def test_smp_gauss_correct():
    kernel = smp_kernel(4)
    run_program(kernel, SMPGauss(n=16, n_threads=4))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_smp_gauss_thread_counts(p):
    kernel = smp_kernel(4)
    run_program(kernel, SMPGauss(n=12, n_threads=p))


def test_smp_rows_stay_private_and_local():
    kernel = smp_kernel(4)
    result = run_program(kernel, SMPGauss(n=16, n_threads=4,
                                          verify_result=False))
    row_pages = [
        r for r in result.report.rows if r.label.startswith("rows")
    ]
    assert all(r.invalidations == 0 for r in row_pages)
    assert all(not r.was_frozen for r in row_pages)


def test_smp_uses_ports_not_shared_memory():
    kernel = smp_kernel(4)
    prog = SMPGauss(n=16, n_threads=4, verify_result=False)
    run_program(kernel, prog)
    assert all(port.sends > 0 for port in prog.pivot_ports[1:])


def test_smp_binomial_tree_structure():
    prog = SMPGauss(n=8, n_threads=8)
    prog.p = 8
    # root 0: children 1, 2, 4
    assert prog._broadcast_children(0, 0) == [1, 2, 4]
    # rank 2 forwards to rank 3
    assert prog._broadcast_children(2, 0) == [3]
    # leaves forward to nobody
    assert prog._broadcast_children(7, 0) == []
    # rotated root
    assert prog._broadcast_children(3, 3) == [4, 5, 7]


def test_smp_every_node_receives_each_round():
    """Union of each round's tree must cover all non-root threads."""
    prog = SMPGauss(n=8, n_threads=8)
    prog.p = 8
    for root in range(8):
        reached = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for child in prog._broadcast_children(node, root):
                assert child not in reached, "duplicate delivery"
                reached.add(child)
                frontier.append(child)
        assert reached == set(range(8))


# -- Sequent Symmetry -----------------------------------------------------------------


def test_sequent_runs_mergesort_correctly():
    result = run_on_sequent(MergeSort(n=2048, n_threads=4),
                            n_processors=4)
    assert result.sim_time_ns > 0


class NeverAdvanced(Program):
    """One thread works; the other awaits an event count nobody
    advances."""

    name = "never-advanced"

    def setup(self, api):
        arena = api.arena(1, label="sync")
        self.evc = api.event_count(arena)
        api.spawn(0, self.stuck, name="stuck")
        api.spawn(1, self.worker, name="worker")

    def stuck(self, env):
        yield from self.evc.await_at_least(1)

    def worker(self, env):
        yield Compute(1000)
        return "worked"


def test_sequent_reports_a_deadlocked_program():
    """The same driver as PLATINUM: a thread that never finished is an
    error, not a finished run with its result ``None``."""
    with pytest.raises(
        RuntimeError,
        match=r"never-advanced: threads never finished: \['seq0'\]",
    ):
        run_on_sequent(NeverAdvanced(), n_processors=2)


def test_sequent_runs_private_work():
    result = run_on_sequent(PrivateWork(n_threads=4, sweeps=2),
                            n_processors=4)
    assert result.sim_time_ns > 0


def test_sequent_bus_carries_all_writes():
    result = run_on_sequent(MergeSort(n=1024, n_threads=2),
                            n_processors=2)
    bus = result.machine.bus
    assert bus.writes > 1024  # write-through: every written word


def test_sequent_cache_too_small_for_merge_runs():
    params = SequentParams(n_processors=2)
    result = run_on_sequent(
        MergeSort(n=8192, n_threads=2, verify_result=False),
        params=params,
    )
    cache = result.machine.bus.caches[0]
    # the working set never survives between phases: miss rate stays high
    assert cache.misses > cache.params.n_lines * 4


def test_sequent_memory_exhaustion_detected():
    params = SequentParams(n_processors=2, memory_words=1024)
    with pytest.raises(MemoryError):
        run_on_sequent(MergeSort(n=4096, n_threads=2), params=params)


def test_sequent_refuses_a_thread_on_a_missing_processor():
    """As the kernel does: a thread on processor 2 of a 2-processor
    machine is a set-up error, not a crash inside the run."""

    class OffTheEnd(Program):
        name = "off-the-end"

        def setup(self, api):
            api.spawn(2, self.body)

        def body(self, env):
            yield Compute(10)

    with pytest.raises(ValueError, match="processor 2 out of range"):
        run_on_sequent(OffTheEnd(), n_processors=2)
