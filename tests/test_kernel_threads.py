"""Tests for kernel threads, migration and address-space activation."""

import pytest

from repro import make_kernel
from repro.kernel.threads import ThreadState
from repro.runtime import Migrate, Program, Read, Write, run_program


@pytest.fixture
def kernel():
    return make_kernel(n_processors=4, defrost_enabled=False)


def _aspace(kernel):
    return kernel.vm.create_address_space()


def test_spawn_binds_and_activates(kernel):
    aspace = _aspace(kernel)
    thread = kernel.threads.spawn(aspace.asid, 2, name="t")
    assert thread.processor == 2
    assert thread.state is ThreadState.RUNNABLE
    cmap = kernel.coherent.cmaps[aspace.asid]
    assert cmap.active_mask == 1 << 2


def test_spawn_out_of_range_rejected(kernel):
    aspace = _aspace(kernel)
    with pytest.raises(ValueError):
        kernel.threads.spawn(aspace.asid, 9)


def test_spawn_into_an_address_space_never_created_rejected(kernel):
    with pytest.raises(ValueError, match="address space 99 "):
        kernel.threads.spawn(99, 0)
    assert kernel.threads.threads == {}
    assert 99 not in kernel.coherent.cmaps


def test_exit_deactivates_when_last(kernel):
    aspace = _aspace(kernel)
    t1 = kernel.threads.spawn(aspace.asid, 1)
    t2 = kernel.threads.spawn(aspace.asid, 1)
    cmap = kernel.coherent.cmaps[aspace.asid]
    kernel.threads.exit(t1)
    assert cmap.active_mask == 1 << 1  # t2 still there
    kernel.threads.exit(t2)
    assert cmap.active_mask == 0
    kernel.threads.exit(t2)  # idempotent


def test_migration_moves_activation(kernel):
    aspace = _aspace(kernel)
    thread = kernel.threads.spawn(aspace.asid, 0)
    cost = kernel.threads.migrate(thread, 3)
    assert thread.processor == 3
    assert thread.migrations == 1
    cmap = kernel.coherent.cmaps[aspace.asid]
    assert cmap.active_mask == 1 << 3
    # the kernel stack moves with the thread: at least one page copy
    assert cost >= kernel.params.page_copy_time


def test_migration_to_same_processor_free(kernel):
    aspace = _aspace(kernel)
    thread = kernel.threads.spawn(aspace.asid, 0)
    assert kernel.threads.migrate(thread, 0) == 0.0
    assert thread.migrations == 0


def test_migrate_dead_thread_rejected(kernel):
    aspace = _aspace(kernel)
    thread = kernel.threads.spawn(aspace.asid, 0)
    kernel.threads.exit(thread)
    with pytest.raises(RuntimeError):
        kernel.threads.migrate(thread, 1)


def test_threads_on_listing(kernel):
    def threads_on(processor):
        return [t for t in kernel.threads.threads.values()
                if t.processor == processor
                and t.state is not ThreadState.DONE]

    aspace = _aspace(kernel)
    t1 = kernel.threads.spawn(aspace.asid, 2)
    kernel.threads.spawn(aspace.asid, 2)
    kernel.threads.spawn(aspace.asid, 1)
    assert len(threads_on(2)) == 2
    kernel.threads.exit(t1)
    assert len(threads_on(2)) == 1


class MigratingProgram(Program):
    """A thread that writes, migrates, and reads its data back."""

    name = "migrator"

    def setup(self, api):
        arena = api.arena(2, label="data")
        self.va = arena.alloc(8, page_aligned=True)
        api.spawn(0, self.body, name="walker")

    def body(self, env):
        yield Write(self.va, 1234)
        assert env.processor == 0
        yield Migrate(2)
        assert env.processor == 2
        value = yield Read(self.va, 1)
        yield Migrate(3)
        value2 = yield Read(self.va, 1)
        return (int(value[0]), int(value2[0]), env.processor)

    def verify(self, results):
        assert results == [(1234, 1234, 3)]


def test_migration_end_to_end():
    kernel = make_kernel(n_processors=4)
    result = run_program(kernel, MigratingProgram())
    # the thread's reads after migration pulled the page along
    assert result.kernel.threads.threads[0].migrations == 2
