"""Edge-case and stress tests across the stack."""

import numpy as np
import pytest

from repro import make_kernel, run_program
from repro.machine.pmap import Rights
from repro.runtime import (
    Compute,
    Migrate,
    Program,
    Read,
    Write,
)
from repro.workloads import GaussianElimination, MergeSort


def test_tiny_pages_still_coherent():
    """32-byte pages: every access splits into many runs and the
    protocol handles orders of magnitude more Cpages."""
    kernel = make_kernel(n_processors=2, page_bytes=32)
    run_program(kernel, MergeSort(n=256, n_threads=2))


def test_odd_page_size():
    """Page sizes only need to be a whole number of words."""
    kernel = make_kernel(n_processors=2, page_bytes=3000)
    assert kernel.params.words_per_page == 750
    run_program(kernel, GaussianElimination(n=12, n_threads=2))


def test_huge_pages():
    kernel = make_kernel(n_processors=4, page_bytes=65536)
    run_program(kernel, GaussianElimination(n=16, n_threads=4))


def test_single_processor_machine():
    kernel = make_kernel(n_processors=1)
    run_program(kernel, GaussianElimination(n=8, n_threads=1))
    report = kernel.report()
    assert report.remote_words == 0
    assert report.ipis == 0


def test_tight_memory_degrades_not_crashes():
    """With barely enough frames, replication degrades to remote
    mappings instead of failing."""
    kernel = make_kernel(
        n_processors=2, frames_per_module=8, defrost_enabled=False
    )
    result = run_program(
        kernel,
        GaussianElimination(n=8, n_threads=2, verify_result=True),
    )
    kernel.check_invariants()


class SelfMigration(Program):
    name = "self-migration"

    def setup(self, api):
        arena = api.arena(1, label="d")
        self.va = arena.alloc(4)
        api.spawn(0, self.body)

    def body(self, env):
        yield Write(self.va, 1)
        yield Migrate(0)  # no-op migration to the same processor
        data = yield Read(self.va, 1)
        return int(data[0])

    def verify(self, results):
        assert results == [1]


def test_migrate_to_same_processor_mid_run():
    kernel = make_kernel(n_processors=2)
    result = run_program(kernel, SelfMigration())
    assert result.kernel.threads.threads[0].migrations == 0


class WriteOnlyPattern(Program):
    """A page that is only ever written, never read back by anyone
    except the final verifier: write faults dominate."""

    name = "write-only"

    def setup(self, api):
        arena = api.arena(2, label="sink")
        self.va = arena.alloc(64, page_aligned=True)
        self.p = min(3, api.n_processors)
        for tid in range(self.p):
            api.spawn(tid, self.body, name=f"w{tid}")

    def body(self, env):
        for i in range(10):
            yield Write(self.va + env.tid, env.tid * 100 + i)
            yield Compute(200_000)
        return env.tid

    def verify(self, results):
        assert sorted(results) == list(range(self.p))


def test_write_only_sharing():
    kernel = make_kernel(n_processors=4)
    run_program(kernel, WriteOnlyPattern())
    kernel.check_invariants()


def test_tiny_atc_still_correct():
    """A 2-entry ATC thrashes but never produces wrong translations."""
    kernel = make_kernel(n_processors=2, atc_entries=2)
    run_program(kernel, GaussianElimination(n=12, n_threads=2))
    mmu = kernel.machine.mmus[0]
    assert mmu.atc.misses > 0


def test_read_only_arena_write_crashes():
    class BadWriter(Program):
        name = "bad-writer"

        def setup(self, api):
            rng = np.random.default_rng(0)
            backing = rng.integers(
                0, 10, size=16, dtype=np.int64
            )
            arena = api.arena(1, label="ro", rights=Rights.READ,
                              backing=backing)
            self.va = arena.base_va
            api.spawn(0, self.body)

        def body(self, env):
            yield Write(self.va, 1)

    from repro.sim import ProcessCrashed

    kernel = make_kernel(n_processors=2)
    with pytest.raises(ProcessCrashed):
        run_program(kernel, BadWriter())


def test_very_long_quiet_run_with_defrost_ticks():
    """A thread that sleeps across many defrost periods: the daemon's
    periodic events must not disturb it or leak state."""

    class Sleeper(Program):
        name = "sleeper"

        def setup(self, api):
            arena = api.arena(1, label="d")
            self.va = arena.alloc(1)
            api.spawn(0, self.body)

        def body(self, env):
            yield Write(self.va, 42)
            yield Compute(5e9)  # 5 simulated seconds
            data = yield Read(self.va, 1)
            return int(data[0])

        def verify(self, results):
            assert results == [42]

    kernel = make_kernel(n_processors=2, defrost_period=100e6)
    run_program(kernel, Sleeper())
    assert kernel.coherent.defrost.runs >= 40


def test_many_small_objects():
    """Hundreds of one-page memory objects in one address space."""
    kernel = make_kernel(n_processors=2, defrost_enabled=False)
    aspace = kernel.vm.create_address_space()
    kernel.coherent.activate(aspace.asid, 0)
    for i in range(300):
        obj = kernel.vm.create_object(1, label=f"o{i}")
        kernel.vm.bind(aspace, i, obj)
        kernel.fault(0, aspace.asid, i, True, kernel.engine.now)
    kernel.check_invariants()
    module = kernel.machine.modules[0]
    assert len(module.frames) - module.n_free == 300


def test_deep_butterfly_topology():
    """A 64-node machine routes through three 4-ary stages."""
    kernel = make_kernel(n_processors=64)
    from repro.machine.topology import ButterflyTopology

    assert isinstance(kernel.machine.topology, ButterflyTopology)
    assert kernel.machine.topology.stages == 3
    run_program(
        kernel,
        GaussianElimination(n=64, n_threads=32, verify_result=False),
    )
