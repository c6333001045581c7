"""Tests for VM-level protection changes (the section 3.1 cases)."""

import pytest

from repro import make_kernel
from repro.core.fault import ProtectionError
from repro.machine.pmap import Rights

from tests.conftest import observing


@pytest.fixture
def setup():
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    obj = kernel.vm.create_object(2, label="obj")
    aspace = kernel.vm.create_address_space()
    binding = kernel.vm.bind(aspace, 0, obj, rights=Rights.WRITE)
    for proc in range(4):
        kernel.coherent.activate(aspace.asid, proc)
    return kernel, aspace, binding


def test_restrict_to_read_only_shoots_down_writers(setup):
    kernel, aspace, binding = setup
    kernel.fault(0, aspace.asid, 0, True, 0)  # write mapping on cpu0
    kernel.vm.protect(aspace, binding, Rights.READ, initiator=1)
    cmap = kernel.coherent.cmaps[aspace.asid]
    entry = cmap.pmap_for(0).lookup(0)
    assert entry is not None and entry.rights == Rights.READ
    # a subsequent write attempt is now a protection error
    with pytest.raises(ProtectionError):
        kernel.fault(0, aspace.asid, 0, True, kernel.engine.now)


def test_revoke_all_rights_invalidates(setup):
    kernel, aspace, binding = setup
    kernel.fault(0, aspace.asid, 0, False, 0)
    kernel.fault(1, aspace.asid, 0, False, 0)
    kernel.vm.protect(aspace, binding, Rights.NONE, initiator=0)
    cmap = kernel.coherent.cmaps[aspace.asid]
    assert cmap.pmap_for(0).lookup(0) is None
    assert cmap.pmap_for(1).lookup(0) is None
    with pytest.raises(ProtectionError):
        kernel.fault(2, aspace.asid, 0, False, kernel.engine.now)


def test_relaxation_is_lazy(setup):
    """Granting more rights posts no shootdown: the next privileged
    access faults and discovers the change (section 3.1)."""
    kernel, aspace, binding = setup
    kernel.vm.protect(aspace, binding, Rights.READ, initiator=0)
    kernel.fault(0, aspace.asid, 0, False, 0)
    shootdowns_before = kernel.coherent.shootdown.shootdowns
    kernel.vm.protect(aspace, binding, Rights.WRITE, initiator=0)
    assert kernel.coherent.shootdown.shootdowns == shootdowns_before
    # the upgrade happens on demand, via a fault
    with observing(kernel) as log:
        kernel.fault(0, aspace.asid, 0, True, kernel.engine.now)
    assert log.faults[-1][0] in ("upgrade", "migrate")


@pytest.mark.parametrize("rights", [Rights.READ, Rights.WRITE])
def test_unchanged_rights_post_no_shootdown(setup, rights):
    """``protect`` to the rights a binding already has restricts
    nothing: no shootdown, on pages mapped on two processors."""
    kernel, aspace, binding = setup
    kernel.vm.protect(aspace, binding, rights, initiator=0)
    for proc in (0, 1):
        kernel.fault(proc, aspace.asid, 0, rights == Rights.WRITE,
                     kernel.engine.now)
    shootdown = kernel.coherent.shootdown
    before = shootdown.shootdowns
    kernel.vm.protect(aspace, binding, rights, initiator=2)
    assert shootdown.shootdowns == before
    cmap = kernel.coherent.cmaps[aspace.asid]
    assert cmap.lookup(0).vm_rights == rights


def test_restriction_only_touches_mapped_pages(setup):
    kernel, aspace, binding = setup
    kernel.fault(0, aspace.asid, 0, True, 0)  # only page 0 ever touched
    kernel.vm.protect(aspace, binding, Rights.READ, initiator=0)
    cmap = kernel.coherent.cmaps[aspace.asid]
    assert cmap.lookup(1) is None  # page 1 never got a Cmap entry
    # but its future faults see the new rights
    kernel.fault(1, aspace.asid, 1, False, kernel.engine.now)
    with pytest.raises(ProtectionError):
        kernel.fault(1, aspace.asid, 1, True, kernel.engine.now)


def test_invariants_hold_after_protect(setup):
    kernel, aspace, binding = setup
    kernel.fault(0, aspace.asid, 0, True, 0)
    kernel.fault(1, aspace.asid, 0, False, kernel.engine.now)
    kernel.vm.protect(aspace, binding, Rights.READ, initiator=2)
    kernel.check_invariants()
