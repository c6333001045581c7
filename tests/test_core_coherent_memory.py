"""Tests for the CoherentMemorySystem facade itself."""

import pytest

from repro.check import InvariantChecker
from repro.core import (
    CoherencyError,
    CoherentMemorySystem,
    Cpage,
)
from repro.machine import Machine, MachineParams
from repro.machine.pmap import Rights


@pytest.fixture
def system():
    machine = Machine(MachineParams(n_processors=4, frames_per_module=16))
    return CoherentMemorySystem(machine, defrost_enabled=False)


def fault(system, proc, aspace_id, vpage, write, now):
    """Deliver a fault the way ``Kernel.fault`` does: to the handler,
    which, with no virtual memory layer to resolve a missing Cmap entry,
    takes faults only on pages already mapped."""
    return system.fault_handler.handle(proc, aspace_id, vpage, write, now)


def test_cmap_creation_lazy(system):
    assert system.cmap_for(7) is None
    cmap = system.cmap_for(7, create=True)
    assert system.cmap_for(7) is cmap


def test_map_and_unmap_page(system):
    cpage = system.cpages.create(label="x")
    entry = system.map_page(0, 5, cpage, Rights.WRITE)
    assert entry.cpage is cpage
    system.activate(0, 1)
    fault(system, 1, 0, 5, True, 0)
    system.unmap_page(0, 5, initiator=1)
    assert system.cmaps[0].lookup(5) is None
    # the hardware translation went with it
    assert system.cmaps[0].pmap_for(1).lookup(5) is None
    # but the physical copy is still in the directory (the object lives)
    assert cpage.n_copies == 1


def test_activate_attaches_pmap_to_mmu(system):
    system.activate(3, 2)
    assert system.machine.mmus[2].pmap_for(3) is not None


def test_activation_cost_charged_for_pending_messages(system):
    cpage = system.cpages.create(label="x")
    system.map_page(0, 5, cpage, Rights.WRITE)
    system.activate(0, 0)
    system.activate(0, 1)
    fault(system, 0, 0, 5, True, 0)
    fault(system, 1, 0, 5, False, 0)  # replica + mapping on cpu1
    system.deactivate(0, 1)
    # collapse: cpu1 is inactive, so its update is deferred
    fault(system, 0, 0, 5, True, system.machine.engine.now)
    cost = system.activate(0, 1)
    assert cost > 0  # paid for applying the queued message


def test_invariant_checker_catches_corruption(system):
    cpage = system.cpages.create(label="x")
    system.map_page(0, 5, cpage, Rights.WRITE)
    system.activate(0, 0)
    fault(system, 0, 0, 5, True, 0)
    # corrupt: claim a write mapping exists on a replicated page
    frame = system.machine.ipt_of(1).allocate_for(cpage.index)
    cpage.add_frame(frame)
    with pytest.raises(CoherencyError):
        InvariantChecker(system).check()


def test_invariant_checker_catches_unregistered_frame(system):
    cpage = system.cpages.create(label="x")
    system.map_page(0, 5, cpage, Rights.WRITE)
    system.activate(0, 0)
    fault(system, 0, 0, 5, False, 0)
    # steal the frame out of the inverted page table behind the
    # system's back
    frame = cpage.frames[0]
    system.machine.ipt_of(0).release(frame)
    system.machine.modules[0].allocate()  # reuse the slot
    with pytest.raises(CoherencyError):
        InvariantChecker(system).check()


def test_report_includes_all_pages(system):
    for i in range(5):
        system.cpages.create(label=f"p{i}")
    report = system.report()
    assert len(report.rows) == 5
