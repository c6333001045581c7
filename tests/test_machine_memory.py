"""Unit tests for memory modules and page frames."""

import numpy as np
import pytest

from repro import make_kernel
from repro.machine import MachineParams, MemoryModule, OutOfFramesError
from repro.machine.memory import Frame, LazyList
from repro.workloads.generate import run_spec
from repro.workloads.spec import PhaseSpec, WorkloadSpec


def pfn(frame):
    """A frame's globally unique physical name."""
    return (frame.module_index, frame.frame_index)


@pytest.fixture
def module():
    params = MachineParams(n_processors=2, frames_per_module=8)
    return MemoryModule(0, params)


def test_allocate_returns_zeroed_frame(module):
    frame = module.allocate()
    assert frame.allocated
    assert np.all(frame.data == 0)
    assert frame.module_index == 0
    assert module.n_free == 7


def test_allocation_is_exhaustible(module):
    for _ in range(8):
        module.allocate()
    with pytest.raises(OutOfFramesError):
        module.allocate()


def test_release_recycles(module):
    frame = module.allocate()
    name = pfn(frame)
    frame.data[:] = 99
    module.release(frame)
    assert not frame.allocated
    assert module.n_free == 8
    again = module.allocate()
    assert np.all(again.data == 0)  # zeroed on reuse
    # the same frame, not a second one materialized beside it
    assert pfn(again) == name and module.frames.materialized == 1


def test_only_a_frame_that_existed_before_is_zeroed(module, monkeypatch):
    """A frame built by its first allocation is np.zeros already; a
    reused one -- freed, or built while free and written -- still comes
    back zeroed."""
    zeroed = []
    zero = Frame.zero
    monkeypatch.setattr(
        Frame, "zero", lambda frame: (zeroed.append(pfn(frame)), zero(frame)))
    fresh = module.allocate()
    assert zeroed == [] and np.all(fresh.data == 0)
    fresh.data[:] = 7
    module.release(fresh)
    reused = module.allocate()
    assert reused is fresh and zeroed == [pfn(fresh)]
    assert np.all(reused.data == 0)
    # built by indexing while free (an inspection), then written
    touched = module.frames[1]
    touched.data[:] = 5
    assert module.allocate() is touched
    assert zeroed == [pfn(fresh), pfn(touched)]
    assert np.all(touched.data == 0)


def test_double_free_detected(module):
    frame = module.allocate()
    module.release(frame)
    with pytest.raises(RuntimeError):
        module.release(frame)


def test_release_wrong_module_rejected():
    params = MachineParams(n_processors=2, frames_per_module=4)
    m0, m1 = MemoryModule(0, params), MemoryModule(1, params)
    frame = m0.allocate()
    with pytest.raises(ValueError):
        m1.release(frame)


def test_frame_copy(module):
    a = module.allocate()
    b = module.allocate()
    a.data[:] = 7
    b.copy_from(a)
    assert np.array_equal(a.data, b.data)
    with pytest.raises(ValueError):
        a.copy_from(a)


def test_frame_pfn_unique(module):
    frames = [module.allocate() for _ in range(3)]
    assert len({pfn(f) for f in frames}) == 3


def test_counters(module):
    f = module.allocate()
    module.release(f)
    module.allocate()
    assert module.alloc_count == 2
    assert module.free_count == 1


def test_bus_occupancy(module):
    start, end = module.bus.occupy(0, 1000)
    assert (start, end) == (0, 1000)
    start2, _ = module.bus.occupy(500, 100)
    assert start2 == 1000  # queued behind the first


# -- lazy frames: the kernel costs what it touches ------------------------------


def test_lazy_list_materializes_on_index_and_iteration():
    made = []
    lazy = LazyList(5, lambda i: made.append(i) or f"item{i}")
    assert len(lazy) == 5 and made == []  # len() builds nothing
    assert lazy[3] == "item3" and lazy[-1] == "item4"
    assert made == [3, 4] and lazy.materialized == 2
    # iteration hands out real elements, never a hole, and builds each once
    assert list(lazy) == [f"item{i}" for i in range(5)]
    assert sorted(made) == [0, 1, 2, 3, 4] and lazy.materialized == 5
    with pytest.raises(IndexError):
        lazy[5]


def test_lazy_list_refuses_slices():
    lazy = LazyList(4, lambda i: i)
    with pytest.raises(TypeError):
        lazy[1:3]
    assert lazy.materialized == 0


def test_fresh_kernel_has_materialized_nothing():
    machine = make_kernel(16).machine
    assert [m.frames.materialized for m in machine.modules] == [0] * 16
    assert len(machine.modules[0].frames) == machine.params.frames_per_module


def test_run_materializes_at_most_what_it_allocates():
    phase = PhaseSpec(ops=30, access="sequential")
    spec = WorkloadSpec(
        name="lazy-private", seed=3, threads=4, machine=4, pages=16,
        sharing="private", phases=(phase,),
    ).validate()
    kernel, _result = run_spec(spec)
    for module in kernel.machine.modules:
        assert 0 < module.frames.materialized <= module.alloc_count
        assert module.frames.materialized < len(module.frames) // 10


def test_exhaustion_is_decided_by_the_free_list():
    params = MachineParams(n_processors=2, frames_per_module=2)
    module = MemoryModule(0, params)
    first = module.allocate()
    module.allocate()
    with pytest.raises(OutOfFramesError):
        module.allocate()
    module.release(first)
    assert module.allocate() is first
    assert module.frames.materialized == 2

