"""Cross-module integration tests: whole programs on the whole stack."""

import numpy as np
import pytest

from repro import make_kernel, run_program
from repro.policy.fixed import (
    AceStylePolicy,
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from repro.machine.pmap import Rights
from repro.runtime import (
    Compute,
    Migrate,
    Program,
    Read,
    Write,
)
from repro.workloads import GaussianElimination, MergeSort

from tests.conftest import _patch_invariant_install


@pytest.fixture(autouse=True)
def _always_check_invariants(monkeypatch):
    """Integration runs always carry the full invariant checker: every
    protocol action of every whole-program test is swept (the rest of
    the suite opts in with ``--check-invariants``)."""
    _patch_invariant_install(monkeypatch)
    yield


ALL_POLICIES = [
    TimestampFreezePolicy,
    lambda: TimestampFreezePolicy(thaw_on_fault=True),
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    AceStylePolicy,
]


@pytest.mark.parametrize("policy_factory", ALL_POLICIES)
def test_gauss_correct_under_every_policy(policy_factory):
    """Policies change performance, never correctness."""
    kernel = make_kernel(n_processors=4, policy=policy_factory())
    run_program(kernel, GaussianElimination(n=12, n_threads=4))


@pytest.mark.parametrize("policy_factory", ALL_POLICIES)
def test_mergesort_correct_under_every_policy(policy_factory):
    kernel = make_kernel(n_processors=4, policy=policy_factory())
    run_program(kernel, MergeSort(n=512, n_threads=4))


def test_policy_changes_performance_not_results():
    """Coherent memory must beat never-cache on a coarse-grain program.

    The page size is shrunk so each padded matrix row fills its page
    (reference density rho ~= 1): by the paper's own Table 1, caching
    only pays above a minimum density, and a 32x32 matrix on 4 KB pages
    would be below it.
    """
    times = {}
    for name, factory in (
        ("freeze", TimestampFreezePolicy),
        ("never", NeverCachePolicy),
    ):
        kernel = make_kernel(
            n_processors=4, policy=factory(), page_bytes=256
        )
        result = run_program(
            kernel,
            GaussianElimination(n=64, n_threads=4, verify_result=False),
        )
        times[name] = result.sim_time_ns
    assert times["freeze"] < times["never"]


def test_invariants_hold_after_full_application():
    kernel = make_kernel(n_processors=4)
    run_program(kernel, GaussianElimination(n=16, n_threads=4))
    kernel.check_invariants()  # run_program also checks; belt and braces


class TwoAddressSpaces(Program):
    """Two address spaces sharing one memory object at different virtual
    addresses with different rights (paper section 1.1)."""

    name = "two-aspaces"

    def setup(self, api):
        self.shared = api.arena(1, label="shared")  # bound in aspace A
        self.slot = self.shared.alloc(4)
        # bind the same object into a second address space, read-only,
        # at a different virtual page
        self.aspace_b = api.kernel.vm.create_address_space()
        api.kernel.vm.bind(
            self.aspace_b, 100, self.shared.obj, rights=Rights.READ
        )
        sync = api.arena(1, label="sync")
        self.ready = api.event_count(sync, name="ready")
        api.spawn(0, self.writer, name="writer")
        api.spawn(1, self.reader, name="reader", aspace=self.aspace_b)

    def writer(self, env):
        yield Write(self.slot, np.array([5, 6, 7, 8], dtype=np.int64))
        yield from self.ready.advance()
        return "wrote"

    def reader(self, env):
        # the sync arena is not mapped here; poll via engine time instead
        wpp = env.kernel.params.words_per_page
        while True:
            data = yield Read(100 * wpp + (self.slot % wpp), 4)
            if int(data[3]) == 8:
                return list(map(int, data))
            yield Compute(100_000)

    def verify(self, results):
        assert results[0] == "wrote"
        assert results[1] == [5, 6, 7, 8]


def test_sharing_across_address_spaces():
    kernel = make_kernel(n_processors=2)
    run_program(kernel, TwoAddressSpaces())


def test_read_only_binding_enforced_across_spaces():
    class WriterInReadOnlySpace(TwoAddressSpaces):
        def reader(self, env):
            wpp = env.kernel.params.words_per_page
            yield Write(100 * wpp, 1)  # must trap: bound read-only

    from repro.sim import ProcessCrashed

    kernel = make_kernel(n_processors=2)
    with pytest.raises(ProcessCrashed):
        run_program(kernel, WriterInReadOnlySpace())


class MigratoryWorker(Program):
    """A thread that migrates around the machine mid-computation while
    other threads share its data."""

    name = "migratory"

    def setup(self, api):
        arena = api.arena(2, label="shared")
        self.va = arena.alloc(64, page_aligned=True)
        sync = api.arena(1, label="sync")
        self.evc = api.event_count(sync, name="step")
        api.spawn(0, self.walker, name="walker")
        api.spawn(1, self.observer, name="observer")

    def walker(self, env):
        total = 0
        for hop, target in enumerate([1, 2, 3, 0]):
            yield Write(self.va + hop, hop * 10)
            yield Migrate(target)
            data = yield Read(self.va, 64)
            total += int(data[hop])
            yield from self.evc.advance()
        return total

    def observer(self, env):
        yield from self.evc.await_at_least(4)
        data = yield Read(self.va, 4)
        return list(map(int, data))

    def verify(self, results):
        assert results[0] == 0 + 10 + 20 + 30
        assert results[1] == [0, 10, 20, 30]


def test_thread_migration_with_shared_data():
    kernel = make_kernel(n_processors=4)
    result = run_program(kernel, MigratoryWorker())
    assert result.kernel.threads.threads[0].migrations == 4


def test_defrost_daemon_runs_during_long_program():
    kernel = make_kernel(n_processors=4, defrost_period=30e6)
    result = run_program(
        kernel,
        GaussianElimination(n=48, n_threads=4, verify_result=False),
    )
    assert result.sim_time_ns > 30e6
    assert kernel.coherent.defrost.runs >= 1


def test_deterministic_end_to_end():
    def run():
        kernel = make_kernel(n_processors=4)
        result = run_program(
            kernel, GaussianElimination(n=16, n_threads=4)
        )
        return (
            result.sim_time_ns,
            result.report.total_faults,
            result.report.ipis,
        )

    assert run() == run()


def test_report_fault_totals_match_handler_count():
    kernel = make_kernel(n_processors=4)
    result = run_program(
        kernel, GaussianElimination(n=16, n_threads=4,
                                    verify_result=False)
    )
    assert (
        result.report.total_faults
        == kernel.coherent.fault_handler.fault_count
    )


def test_bus_topology_machine_runs_programs():
    kernel = make_kernel(n_processors=4, topology="bus")
    run_program(kernel, MergeSort(n=512, n_threads=4))


def test_uniform_topology_machine_runs_programs():
    kernel = make_kernel(n_processors=4, topology="uniform")
    run_program(kernel, GaussianElimination(n=12, n_threads=4))


def test_small_pages_machine():
    kernel = make_kernel(n_processors=4, page_bytes=512)
    run_program(kernel, GaussianElimination(n=12, n_threads=4))


def test_odd_processor_counts():
    kernel = make_kernel(n_processors=5)
    run_program(kernel, GaussianElimination(n=15, n_threads=5))
