"""The kernel's own memory regions (paper section 2.2), built from the
public VM and freeze machinery: no run boots them, so the layout lives
here, beside the claims it carries."""

from types import SimpleNamespace

import pytest

from repro import make_kernel, run_program
from repro.core import CpageState
from repro.machine.pmap import Rights
from repro.workloads import GaussianElimination


def boot_kernel_memory(kernel, text_pages: int = 4, data_pages: int = 2):
    """Set up the kernel's own memory regions as section 2.2
    describes: "The kernel replicates its code and read-only data.
    Since writable data in physical memory can only have one copy,
    each writable page in kernel physical memory is mapped for
    remote access by all but its local processor."

    Kernel text is replicated to every module at boot; writable kernel
    data pages get a single copy each (distributed round-robin) and are
    born *frozen*, so every other processor's mapping is a full-rights
    remote mapping -- exactly the frozen-page mechanism reused for the
    kernel's own data.  Returns the address space and the two objects.
    """
    n = kernel.params.n_processors
    aspace = kernel.vm.create_address_space()
    text = kernel.vm.create_object(text_pages, label="ktext")
    kernel.vm.bind(aspace, 0, text, rights=Rights.READ)
    data = kernel.vm.create_object(data_pages, label="kdata")
    kernel.vm.bind(aspace, text_pages, data, rights=Rights.WRITE)
    for proc in range(n):
        kernel.coherent.activate(aspace.asid, proc)
    now = kernel.engine.now
    # replicate the text everywhere (boot-time, not charged to anyone)
    for vpage in range(text_pages):
        for proc in range(n):
            kernel.fault(proc, aspace.asid, vpage, False, now)
    # place each writable kernel page and freeze it so all further
    # mappings are full-rights remote mappings
    for i in range(data_pages):
        vpage = text_pages + i
        home = i % n
        kernel.fault(home, aspace.asid, vpage, True, now)
        cpage = data.cpages[i]
        kernel.policy.freeze(cpage, now)
        cpage.thaw_exempt = True  # the daemon must not thaw these
        for proc in range(n):
            if proc != home:
                kernel.fault(proc, aspace.asid, vpage, True, now)
    return SimpleNamespace(aspace=aspace, text=text, data=data)


@pytest.fixture
def booted():
    kernel = make_kernel(n_processors=4)
    kernel.kmem = boot_kernel_memory(kernel, text_pages=3, data_pages=2)
    return kernel


def test_kernel_text_replicated_everywhere(booted):
    for cpage in booted.kmem.text.cpages:
        assert cpage.n_copies == 4
        assert cpage.state is CpageState.PRESENT_PLUS
        assert not cpage.frozen


def test_kernel_data_single_copy_frozen(booted):
    homes = set()
    for cpage in booted.kmem.data.cpages:
        assert cpage.n_copies == 1
        assert cpage.frozen and cpage.thaw_exempt
        homes.update(cpage.frames)
    # writable kernel pages are distributed, not piled on one module
    assert len(homes) == len(booted.kmem.data.cpages)


def test_kernel_data_mapped_remotely_with_write_rights(booted):
    """All but the local processor get full-rights remote mappings."""
    cmap = booted.coherent.cmaps[booted.kmem.aspace.asid]
    text_pages = booted.kmem.text.n_pages
    for i, cpage in enumerate(booted.kmem.data.cpages):
        vpage = text_pages + i
        home = next(iter(cpage.frames))
        for proc in range(4):
            entry = cmap.pmap_for(proc).lookup(vpage)
            assert entry is not None
            assert entry.rights == Rights.WRITE
            assert entry.remote == (proc != home)


def test_defrost_daemon_spares_kernel_data(booted):
    thawed = booted.coherent.defrost.run_once()
    assert thawed == 0
    assert all(cp.frozen for cp in booted.kmem.data.cpages)


def test_kernel_text_is_read_only(booted):
    from repro.core.fault import ProtectionError

    with pytest.raises(ProtectionError):
        booted.fault(0, booted.kmem.aspace.asid, 0, True, 0)


def test_boot_consumes_frames_per_module(booted):
    # 3 text replicas on every module + 2 data pages somewhere
    total = sum(len(m.frames) - m.n_free for m in booted.machine.modules)
    assert total == 3 * 4 + 2


def test_applications_run_on_booted_kernel(booted):
    run_program(booted, GaussianElimination(n=12, n_threads=4))
    booted.check_invariants()
    # kernel regions undisturbed by the application
    assert all(cp.n_copies == 4 for cp in booted.kmem.text.cpages)
    assert all(cp.frozen for cp in booted.kmem.data.cpages)
