"""Tests for the virtual memory layer: objects, address spaces, bindings."""

import numpy as np
import pytest

from repro import make_kernel
from repro.kernel.vm import AddressError
from repro.machine.pmap import Rights


@pytest.fixture
def kernel():
    return make_kernel(n_processors=4, defrost_enabled=False)


def test_create_object_makes_cpages(kernel):
    obj = kernel.vm.create_object(3, label="obj")
    assert obj.n_pages == 3
    assert [cp.label for cp in obj.cpages] == [
        "obj[0]", "obj[1]", "obj[2]"
    ]


def test_object_backing_split_per_page(kernel):
    wpp = kernel.params.words_per_page
    backing = np.arange(wpp + 10, dtype=np.int64)
    obj = kernel.vm.create_object(2, backing=backing)
    assert len(obj.cpages[0].backing) == wpp
    assert len(obj.cpages[1].backing) == 10
    assert obj.cpages[1].backing[0] == wpp


def test_oversized_backing_rejected(kernel):
    wpp = kernel.params.words_per_page
    with pytest.raises(ValueError):
        kernel.vm.create_object(1, backing=np.zeros(wpp + 1,
                                                    dtype=np.int64))


def test_placement_interleave(kernel):
    obj = kernel.vm.create_object(6, placement="interleave")
    assert [cp.placement_module for cp in obj.cpages] == [0, 1, 2, 3, 0, 1]


def test_placement_pinned(kernel):
    obj = kernel.vm.create_object(2, placement=3)
    assert all(cp.placement_module == 3 for cp in obj.cpages)


def test_placement_validation(kernel):
    with pytest.raises(ValueError):
        kernel.vm.create_object(1, placement=99)
    with pytest.raises(ValueError):
        kernel.vm.create_object(1, placement="scatter")


def test_bind_and_resolve(kernel):
    obj = kernel.vm.create_object(4)
    aspace = kernel.vm.create_address_space()
    kernel.vm.bind(aspace, 10, obj, rights=Rights.READ)
    cpage, rights = kernel.vm.aspaces.resolve(aspace.asid, 12)
    assert cpage is obj.cpages[2]
    assert rights == Rights.READ


def test_bind_partial_range(kernel):
    obj = kernel.vm.create_object(4)
    aspace = kernel.vm.create_address_space()
    kernel.vm.bind(aspace, 0, obj, obj_page_start=2, n_pages=2)
    cpage, _rights = kernel.vm.aspaces.resolve(aspace.asid, 1)
    assert cpage is obj.cpages[3]


def test_bind_overlap_rejected(kernel):
    obj = kernel.vm.create_object(4)
    aspace = kernel.vm.create_address_space()
    kernel.vm.bind(aspace, 10, obj)
    with pytest.raises(ValueError):
        kernel.vm.bind(aspace, 12, obj)


def test_bind_bad_range_rejected(kernel):
    obj = kernel.vm.create_object(2)
    aspace = kernel.vm.create_address_space()
    with pytest.raises(ValueError):
        kernel.vm.bind(aspace, 0, obj, obj_page_start=1, n_pages=2)


def test_wild_access_raises_address_error(kernel):
    aspace = kernel.vm.create_address_space()
    with pytest.raises(AddressError):
        kernel.vm.aspaces.resolve(aspace.asid, 5)
    with pytest.raises(AddressError):
        kernel.vm.aspaces.resolve(999, 5)


def test_object_shared_between_address_spaces(kernel):
    """Memory objects are the unit of sharing: two address spaces bind
    the same object at different addresses with different rights."""
    obj = kernel.vm.create_object(1)
    a1 = kernel.vm.create_address_space()
    a2 = kernel.vm.create_address_space()
    kernel.vm.bind(a1, 0, obj, rights=Rights.WRITE)
    kernel.vm.bind(a2, 50, obj, rights=Rights.READ)
    kernel.coherent.activate(a1.asid, 0)
    kernel.coherent.activate(a2.asid, 1)
    kernel.fault(0, a1.asid, 0, True, kernel.engine.now)
    frame_w = kernel.coherent.cmaps[a1.asid].pmap_for(0).lookup(0).frame
    kernel.fault(1, a2.asid, 50, False, kernel.engine.now)
    # writes through aspace 1 are visible to reads through aspace 2
    frame_w.data[0] = 77
    cpage = obj.cpages[0]
    reader_frame = (
        kernel.coherent.cmaps[a2.asid].pmap_for(1).lookup(50).frame
    )
    assert reader_frame in cpage.frames.values()


def test_unbind_shoots_down_translations(kernel):
    obj = kernel.vm.create_object(1)
    aspace = kernel.vm.create_address_space()
    binding = kernel.vm.bind(aspace, 0, obj)
    kernel.coherent.activate(aspace.asid, 0)
    kernel.fault(0, aspace.asid, 0, True, kernel.engine.now)
    kernel.vm.unbind(aspace, binding, initiator=0)
    cmap = kernel.coherent.cmaps[aspace.asid]
    assert cmap.lookup(0) is None
    assert cmap.pmap_for(0).lookup(0) is None
    with pytest.raises(AddressError):
        kernel.vm.aspaces.resolve(aspace.asid, 0)


def test_vm_fault_counter(kernel):
    obj = kernel.vm.create_object(2)
    aspace = kernel.vm.create_address_space()
    kernel.vm.bind(aspace, 0, obj)
    kernel.coherent.activate(aspace.asid, 0)
    kernel.fault(0, aspace.asid, 0, False, 0)
    kernel.fault(0, aspace.asid, 1, False, 0)
    # each first fault went through the VM layer and left its entry
    assert sorted(kernel.coherent.cmaps[aspace.asid].entries) == [0, 1]
