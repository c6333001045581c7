"""Unit tests for Pmaps and inverted page tables."""

import random

import numpy as np
import pytest

from repro import make_kernel
from repro.machine import (
    InvertedPageTable,
    MachineParams,
    MemoryModule,
    Pmap,
    Rights,
)
from repro.machine.memory import WORD_DTYPE, OutOfFramesError


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
    assert [e.cpage_index is None for e in ipt._entries].count(False) == 1


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


# -- the IPT's in-place allocation against MemoryModule's ------------------------


class ReferenceIPT(InvertedPageTable):
    """Allocation and release as they were spelled before: the IPT half
    around ``MemoryModule.allocate`` / ``release``, through ``LazyList``
    indexing, and an ``OutOfFramesError`` when the module is full."""

    def allocate_for(self, cpage_index):
        if cpage_index in self._by_cpage:
            raise RuntimeError("already backed")
        try:
            frame = self.module.allocate()
        except OutOfFramesError:
            return None
        entry = self._entries[frame.frame_index]
        entry.cpage_index = cpage_index
        self._by_cpage[cpage_index] = frame.frame_index
        return frame

    def release(self, frame):
        entry = self._entries[frame.frame_index]
        cpage_index = entry.cpage_index
        if cpage_index is None:
            raise RuntimeError("releasing free frame")
        entry.cpage_index = None
        del self._by_cpage[cpage_index]
        self.module.release(frame)
        return cpage_index


def _ipt_twin(cls, dataless):
    params = MachineParams(n_processors=2, frames_per_module=6,
                           page_bytes=64).validated()
    shared = np.zeros(params.words_per_page, dtype=WORD_DTYPE) \
        if dataless else None
    return cls(MemoryModule(0, params, frame_data=shared))


def _ipt_state(ipt):
    module = ipt.module
    return {
        "free": list(module._free),
        "counts": (module.alloc_count, module.free_count,
                   module.frames.materialized, ipt._entries.materialized),
        "by_cpage": dict(ipt._by_cpage),
        "frames": [None if f is None else
                   (f.frame_index, f.allocated, f.data.tolist())
                   for f in module.frames._items],
        "entries": [None if e is None else e.cpage_index
                    for e in ipt._entries._items],
    }


@pytest.mark.parametrize("dataless", [False, True])
@pytest.mark.parametrize("seed", range(20))
def test_ipt_allocation_matches_memory_module(seed, dataless):
    """Random allocations (a full module among them), releases, raw
    ``MemoryModule.allocate`` calls that leave a built frame with no
    IPT entry, and writes to allocated frames: both spellings return
    the same frames and leave the same module, free list, counters,
    materialised items and data (a reused frame comes back zeroed)."""
    rng = random.Random(seed)
    fast, ref = _ipt_twin(InvertedPageTable, dataless), \
        _ipt_twin(ReferenceIPT, dataless)
    held = {}  # cpage -> frame index
    raw = []   # frame indices taken through MemoryModule.allocate
    next_cpage = 0
    for _ in range(60):
        verb = rng.choice(("alloc", "alloc", "release", "raw", "write"))
        if verb == "alloc":
            got = fast.allocate_for(next_cpage)
            want = ref.allocate_for(next_cpage)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.frame_index == want.frame_index
                held[next_cpage] = got.frame_index
            next_cpage += 1
        elif verb == "release" and held:
            cpage = rng.choice(sorted(held))
            index = held.pop(cpage)
            assert fast.release(fast.module.frames[index]) == cpage
            assert ref.release(ref.module.frames[index]) == cpage
        elif verb == "raw":
            if fast.module.n_free:
                raw.append(fast.module.allocate().frame_index)
                ref.module.allocate()
            elif raw:
                index = raw.pop(rng.randrange(len(raw)))
                fast.module.release(fast.module.frames[index])
                ref.module.release(ref.module.frames[index])
        elif verb == "write" and held and not dataless:
            index = held[rng.choice(sorted(held))]
            value = rng.randrange(1, 100)
            fast.module.frames[index].data[:] = value
            ref.module.frames[index].data[:] = value
        assert _ipt_state(fast) == _ipt_state(ref)


def test_ipt_allocate_and_release_errors_match_the_module():
    module = MemoryModule(
        0, MachineParams(n_processors=2, frames_per_module=2).validated())
    ipt = InvertedPageTable(module)
    frame = ipt.allocate_for(1)
    with pytest.raises(RuntimeError, match="already backs"):
        ipt.allocate_for(1)
    ipt.release(frame)
    with pytest.raises(RuntimeError, match="releasing free frame"):
        ipt.release(frame)
    other = MemoryModule(
        1, MachineParams(n_processors=2, frames_per_module=2).validated())
    stranger = InvertedPageTable(other).allocate_for(1)
    # this table's entry at the stranger's frame index is bound: the
    # release is refused before either half changes
    ipt.allocate_for(2)
    with pytest.raises(ValueError, match="does not belong"):
        ipt.release(stranger)
    assert ipt._by_cpage == {2: stranger.frame_index}
