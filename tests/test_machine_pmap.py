"""Unit tests for Pmaps and inverted page tables."""

import pytest

from repro import make_kernel
from repro.machine import (
    InvertedPageTable,
    MachineParams,
    MemoryModule,
    Pmap,
    Rights,
)


@pytest.fixture
def module():
    params = MachineParams(n_processors=2, frames_per_module=8).validated()
    return MemoryModule(0, params)


@pytest.fixture
def ipt(module):
    return InvertedPageTable(module)


# -- Rights --------------------------------------------------------------------


def test_write_implies_read():
    assert Rights.WRITE.allows(False)
    assert Rights.WRITE.allows(True)
    assert Rights.READ.allows(False)
    assert not Rights.READ.allows(True)
    assert not Rights.NONE.allows(False)


# -- Pmap ----------------------------------------------------------------------


def test_pmap_enter_and_lookup(module):
    pmap = Pmap(0, 0)
    frame = module.allocate()
    entry = pmap.enter(5, frame, Rights.READ, remote=False)
    assert pmap.lookup(5) is entry
    assert pmap.lookup(6) is None
    assert len(pmap) == 1


def test_pmap_enter_replaces(module):
    pmap = Pmap(0, 0)
    f1, f2 = module.allocate(), module.allocate()
    pmap.enter(5, f1, Rights.READ, remote=False)
    entry = pmap.enter(5, f2, Rights.WRITE, remote=True)
    assert pmap.lookup(5) is entry
    assert entry.frame is f2
    assert entry.remote


def test_pmap_enter_none_rights_rejected(module):
    with pytest.raises(ValueError):
        Pmap(0, 0).enter(1, module.allocate(), Rights.NONE, remote=False)


def test_pmap_restrict(module):
    pmap = Pmap(0, 0)
    pmap.enter(5, module.allocate(), Rights.WRITE, remote=False)
    assert pmap.restrict(5, Rights.READ) is True
    assert pmap.lookup(5).rights == Rights.READ
    assert pmap.restrict(5, Rights.READ) is False  # unchanged
    assert pmap.restrict(99, Rights.READ) is False  # absent


def test_pmap_restrict_to_none_removes(module):
    pmap = Pmap(0, 0)
    pmap.enter(5, module.allocate(), Rights.READ, remote=False)
    assert pmap.restrict(5, Rights.NONE) is True
    assert pmap.lookup(5) is None


def test_pmap_remove_and_clear(module):
    pmap = Pmap(0, 0)
    pmap.enter(1, module.allocate(), Rights.READ, remote=False)
    pmap.enter(2, module.allocate(), Rights.READ, remote=False)
    assert pmap.remove(1) is not None
    assert pmap.remove(1) is None
    assert pmap.clear() == 1
    assert len(pmap) == 0


# -- Inverted page table ----------------------------------------------------------


def test_ipt_allocate_and_find(ipt):
    frame = ipt.allocate_for(42)
    assert ipt.find_local_copy(42) is frame
    assert ipt.find_local_copy(43) is None
    assert ipt.owner_of(frame) == 42


def test_ipt_double_bind_rejected(ipt):
    ipt.allocate_for(42)
    with pytest.raises(RuntimeError):
        ipt.allocate_for(42)


def test_ipt_release(ipt):
    frame = ipt.allocate_for(42)
    assert ipt.release(frame) == 42
    assert ipt.find_local_copy(42) is None
    assert not frame.allocated
    # the cpage can be bound again after release
    ipt.allocate_for(42)


def test_ipt_release_free_frame_rejected(ipt, module):
    frame = module.allocate()
    module.release(frame)
    with pytest.raises(RuntimeError):
        ipt.release(frame)


def test_ipt_tracks_module_capacity(ipt):
    for i in range(8):
        ipt.allocate_for(i)
    assert ipt.n_free == 0


def test_ipt_entries_appear_with_the_frames_they_describe(ipt, module):
    assert ipt._entries.materialized == 0 and len(ipt) == 8
    frame = ipt.allocate_for(42)
    assert ipt._entries.materialized == module.frames.materialized == 1
    assert ipt.release(frame) == 42
    # the recycled frame comes back under the same entry
    assert ipt.allocate_for(43) is frame
    assert ipt._entries.materialized == 1
    # walking the table sees real entries, not holes
    assert [e.free for e in ipt._entries].count(False) == 1


def test_fresh_kernel_has_no_ipt_entries():
    machine = make_kernel(16).machine
    assert [t._entries.materialized for t in machine.ipts] == [0] * 16


def test_pmap_entry_copies_like_a_dataclass(module):
    """``PmapEntry`` has ``__slots__`` (one is allocated per fault); the
    dataclass conveniences the tools rely on must survive that."""
    import copy
    import dataclasses

    from repro.machine.pmap import PmapEntry

    entry = PmapEntry(4, module.allocate(), Rights.READ, remote=True,
                      cpage_index=9)
    twin = copy.copy(entry)
    assert twin is not entry and twin.frame is entry.frame
    assert dataclasses.astuple(twin)[0] == 4 and twin.cpage_index == 9
    upgraded = dataclasses.replace(entry, rights=Rights.WRITE, modified=True)
    assert (upgraded.rights, upgraded.modified, upgraded.remote) == (
        Rights.WRITE, True, True)
    assert entry.rights == Rights.READ and not entry.modified
    with pytest.raises(AttributeError):
        entry.scratch = 1  # no __dict__ to grow
