"""Unit tests for the MMU: address translation cache + private Pmaps."""

import pytest

from repro.machine import (
    ATC,
    MMU,
    MachineParams,
    MemoryModule,
    Pmap,
    Rights,
)


@pytest.fixture
def setup():
    params = MachineParams(
        n_processors=2, frames_per_module=8, atc_entries=4
    ).validated()
    module = MemoryModule(0, params)
    mmu = MMU(0, params)
    pmap = Pmap(0, 0)
    mmu.attach_pmap(pmap)
    return params, module, mmu, pmap


def test_translate_miss_with_no_mapping_faults(setup):
    params, module, mmu, pmap = setup
    result = mmu.translate(0, 5, write=False)
    assert result.fault
    assert result.cost == params.atc_miss_cost
    assert mmu.faults == 1


def test_translate_pmap_hit_fills_atc(setup):
    params, module, mmu, pmap = setup
    frame = module.allocate()
    pmap.enter(5, frame, Rights.READ, remote=False)
    r1 = mmu.translate(0, 5, write=False)
    assert not r1.fault and not r1.atc_hit
    assert r1.cost == params.atc_miss_cost
    r2 = mmu.translate(0, 5, write=False)
    assert r2.atc_hit and r2.cost == 0.0
    assert r1.entry is r2.entry


def test_translate_sets_reference_and_modify_bits(setup):
    _, module, mmu, pmap = setup
    pmap.enter(5, module.allocate(), Rights.WRITE, remote=False)
    mmu.translate(0, 5, write=False)
    entry = pmap.lookup(5)
    assert entry.referenced and not entry.modified
    mmu.translate(0, 5, write=True)
    assert entry.modified


def test_rights_miss_in_atc_flushes_and_faults(setup):
    _, module, mmu, pmap = setup
    pmap.enter(5, module.allocate(), Rights.READ, remote=False)
    mmu.translate(0, 5, write=False)  # cache it read-only
    result = mmu.translate(0, 5, write=True)
    assert result.fault
    # after the fault upgrades the Pmap, the retry must succeed
    pmap.enter(5, pmap.lookup(5).frame, Rights.WRITE, remote=False)
    retry = mmu.translate(0, 5, write=True)
    assert not retry.fault


def test_atc_lru_eviction():
    atc = ATC(capacity=2)

    class E:  # minimal PmapEntry stand-in
        rights = Rights.READ
        referenced = False
        modified = False

    a, b, c = E(), E(), E()
    atc.insert(0, 1, a)
    atc.insert(0, 2, b)
    atc.lookup(0, 1)  # touch 1 -> 2 becomes LRU
    atc.insert(0, 3, c)
    assert atc.lookup(0, 2) is None
    assert atc.lookup(0, 1) is a
    assert atc.lookup(0, 3) is c


def test_atc_flush_operations():
    atc = ATC(capacity=8)

    class E:
        rights = Rights.READ
        referenced = False
        modified = False

    atc.insert(0, 1, E())
    atc.insert(0, 2, E())
    atc.insert(1, 1, E())
    assert atc.flush_page(0, 1) is True
    assert atc.flush_page(0, 1) is False
    assert len(atc) == 2
    assert atc.flushes == 1


def test_atc_capacity_validation():
    with pytest.raises(ValueError):
        ATC(0)


def test_mmu_invalidate_page(setup):
    _, module, mmu, pmap = setup
    pmap.enter(5, module.allocate(), Rights.WRITE, remote=False)
    mmu.translate(0, 5, write=True)
    mmu.invalidate_page(0, 5)
    assert pmap.lookup(5) is None
    assert mmu.translate(0, 5, write=False).fault


def test_mmu_restrict_page(setup):
    _, module, mmu, pmap = setup
    pmap.enter(5, module.allocate(), Rights.WRITE, remote=False)
    mmu.translate(0, 5, write=True)
    mmu.restrict_page(0, 5, Rights.READ)
    assert not mmu.translate(0, 5, write=False).fault
    assert mmu.translate(0, 5, write=True).fault


def test_attach_pmap_wrong_cpu_rejected(setup):
    _, _, mmu, _ = setup
    with pytest.raises(ValueError):
        mmu.attach_pmap(Pmap(1, 0))
