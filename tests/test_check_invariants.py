"""The runtime invariant checker (``repro.check.invariants``).

Two obligations: a clean protocol run must produce zero violations with
the checker hooked after every action, and every seeded corruption of
the directory state must be caught *by the invariant that owns it*.
"""

import pytest

from repro.check import (
    InvariantChecker,
    InvariantViolation,
    install_invariant_checker,
)
from repro.core.cmap import CmapMessage, Directive
from repro.core.cpage import CpageState
from repro.machine.pmap import Rights
from repro.point import point_kernel
from repro.runtime.run import run_program
from repro.workloads import GeneratedWorkload, generate_spec
from repro.workloads.generate import bench_spec_for

from tests.conftest import make_harness


def checked_harness(policy="always", **kw):
    harness = make_harness(policy=policy, **kw)
    checker = install_invariant_checker(harness.kernel.coherent)
    return harness, checker


# -- clean runs ---------------------------------------------------------------


def test_clean_run_passes_every_sweep():
    harness, checker = checked_harness()
    harness.fault(0, write=True)
    harness.fault(1, write=False)
    harness.fault(2, write=False)
    harness.fault(3, write=True)
    harness.fault(0, write=False)
    assert checker.checks > 0


def test_hooks_fire_on_every_protocol_action():
    harness, checker = checked_harness()
    before = checker.checks
    harness.fault(0, write=True)
    after_fault = checker.checks
    assert after_fault > before  # the fault handler fired the hook
    harness.fault(1, write=False)  # replicate: shootdown restricts
    assert checker.checks > after_fault


def test_clean_freeze_thaw_cycle_passes():
    harness, checker = checked_harness(policy="freeze")
    harness.fault(0, write=True)
    harness.fault(1, write=True)
    harness.fault(2, write=True, settle=False)  # within t1: freezes
    assert harness.cpage.frozen
    harness.settle(300e6)  # past t2
    harness.kernel.coherent.defrost.run_once()
    assert not harness.cpage.frozen
    assert checker.checks > 0


def test_install_is_idempotent():
    """Through the observer list, with the tracer still first."""
    harness = make_harness()
    system = harness.kernel.coherent
    first = install_invariant_checker(system)
    harness.kernel.tracer.enable()
    second = install_invariant_checker(system)
    assert first is second
    assert list(system.observers) == [harness.kernel.tracer, first]
    assert not hasattr(system, "_invariant_checker")


# -- seeded corruptions: each invariant catches its own -----------------------


def corrupted(harness):
    """Replicate the page on three processors, then hand it back for
    the test to corrupt."""
    harness.fault(0, write=True)
    harness.fault(1, write=False)
    harness.fault(2, write=False)
    assert harness.cpage.state is CpageState.PRESENT_PLUS
    return harness


def assert_caught(harness, fragment):
    checker = InvariantChecker(harness.kernel.coherent)
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check()
    assert any(
        fragment in violation for violation in exc_info.value.violations
    ), exc_info.value.violations


def test_catches_state_directory_disagreement():
    harness = corrupted(make_harness())
    harness.cpage.state = CpageState.MODIFIED  # three copies say otherwise
    assert_caught(harness, "single-writer")


def test_catches_divergent_replica_bytes():
    harness = corrupted(make_harness())
    frames = list(harness.cpage.frames.values())
    frames[0].data[0] = 1
    frames[1].data[0] = 2
    assert_caught(harness, "single-writer")


def test_catches_translation_outside_reference_mask():
    harness = corrupted(make_harness())
    harness.cmap_entry().ref_mask = 0  # mask no longer covers cpu0..2
    assert_caught(harness, "translation-copyset")


def test_catches_unregistered_directory_frame():
    harness = corrupted(make_harness())
    frame = next(iter(harness.cpage.frames.values()))
    ipt = harness.machine.ipts[frame.module_index]
    ipt._entries[frame.frame_index].cpage_index = 999  # rebind the frame
    assert_caught(harness, "frame-ownership")


def test_catches_write_translation_on_unmodified_page():
    harness = corrupted(make_harness())
    entry = harness.pmap_entry(1)
    entry.rights = Rights.WRITE  # page is present+, not modified
    assert_caught(harness, "pmap-state")


def test_catches_frozen_page_with_replicas():
    harness = corrupted(make_harness())
    harness.cpage.frozen = True
    harness.cpage.frozen_at = int(harness.kernel.engine.now)
    assert_caught(harness, "frozen-pages")


def test_catches_stale_defrost_queue_entry():
    harness = corrupted(make_harness())
    harness.kernel.coherent.policy._frozen.append(harness.cpage)
    assert_caught(harness, "defrost-queue")


def test_catches_frozen_page_missing_from_defrost_queue():
    harness = make_harness(policy="freeze")
    harness.fault(0, write=True)
    harness.fault(1, write=True)
    harness.fault(2, write=True, settle=False)
    assert harness.cpage.frozen
    harness.kernel.coherent.policy._frozen.clear()
    assert_caught(harness, "defrost-queue")


def test_catches_retired_message_left_queued():
    harness = corrupted(make_harness())
    cmap = harness.kernel.coherent.cmaps[harness.aspace_id]
    cmap.messages.append(
        CmapMessage(
            vpage=harness.vpage,
            directive=Directive.INVALIDATE,
            rights=Rights.NONE,
            target_mask=0,
            posted_at=int(harness.kernel.engine.now),
        )
    )
    assert_caught(harness, "message-queue")


def test_catches_message_targeting_absent_processor():
    harness = corrupted(make_harness(n_processors=4))
    cmap = harness.kernel.coherent.cmaps[harness.aspace_id]
    cmap.messages.append(
        CmapMessage(
            vpage=harness.vpage,
            directive=Directive.RESTRICT,
            rights=Rights.READ,
            target_mask=1 << 9,  # cpu9 on a 4-processor machine
            posted_at=int(harness.kernel.engine.now),
        )
    )
    assert_caught(harness, "message-queue")


# -- reporting modes ----------------------------------------------------------


def test_violation_message_summarises_and_counts():
    harness = corrupted(make_harness())
    harness.cpage.state = CpageState.MODIFIED
    with pytest.raises(InvariantViolation) as exc_info:
        InvariantChecker(harness.kernel.coherent).check()
    message = str(exc_info.value)
    assert "invariant violation" in message
    assert "single-writer" in message


def test_hooked_checker_raises_at_the_corrupting_action():
    """With the hook installed, the *next* protocol action after a
    corruption raises -- the fault that trips it, not the end of run."""
    harness, _checker = checked_harness()
    harness.fault(0, write=True)
    # corrupt state the protocol machinery never reads itself, so only
    # the hooked sweep can notice it
    harness.kernel.coherent.policy._frozen.append(harness.cpage)
    with pytest.raises(InvariantViolation):
        harness.fault(1, write=False)


# -- one checker: the end of a run checks all seven ---------------------------


def test_end_of_run_check_covers_the_defrost_queue():
    """``Kernel.check_invariants()`` -- what every run ends with -- is
    the full checker, so a frozen page dropped from the defrost queue
    after a finished run is reported."""
    spec = generate_spec(100, "smoke")
    kernel = point_kernel(bench_spec_for(spec))
    run_program(kernel, GeneratedWorkload(spec))
    kernel.check_invariants()  # clean
    assert kernel.coherent.policy._frozen.pop().frozen
    with pytest.raises(InvariantViolation, match="defrost-queue"):
        kernel.check_invariants()


def unbound_idle_aspace():
    """Map one two-page object on every processor, leave the address
    space active nowhere, then unbind it from cpu0: every other
    processor's invalidation is deferred to a queued Cmap message, and
    the Cmap entries are gone."""
    harness = make_harness()
    kernel = harness.kernel
    obj = kernel.vm.create_object(2, label="x")
    aspace = kernel.vm.create_address_space()
    binding = kernel.vm.bind(aspace, 0, obj)
    n = kernel.params.n_processors
    for proc in range(n):
        kernel.coherent.activate(aspace.asid, proc)
        for vpage in (0, 1):
            kernel.fault(proc, aspace.asid, vpage, False, kernel.engine.now)
    for proc in range(n):
        kernel.coherent.deactivate(aspace.asid, proc)
    kernel.vm.unbind(aspace, binding)
    cmap = kernel.coherent.cmaps[aspace.asid]
    assert not cmap.entries and cmap.messages
    # the initiator applied its own invalidations at once
    assert [len(cmap.pmap_for(proc)) for proc in range(n)] == [0, 2, 2, 2]
    return kernel, cmap


def test_unbind_of_an_aspace_active_nowhere_is_clean():
    """The stale translations await their queued invalidations; the
    checker exempts pending vpages before it looks up the Cmap entry."""
    kernel, cmap = unbound_idle_aspace()
    kernel.check_invariants()
    for proc in range(kernel.params.n_processors):
        kernel.coherent.activate(cmap.aspace_id, proc)
    assert not cmap.messages
    assert all(len(pmap) == 0 for pmap in cmap.pmaps().values())
    kernel.check_invariants()


def test_stale_translation_with_no_pending_message_is_caught():
    kernel, cmap = unbound_idle_aspace()
    for proc in range(kernel.params.n_processors):
        kernel.coherent.activate(cmap.aspace_id, proc)
    frame = kernel.machine.modules[1].allocate()
    cmap.pmap_for(1).enter(0, frame, Rights.READ, remote=False)
    with pytest.raises(InvariantViolation,
                       match="translation-copyset: cpu1 maps unmapped "
                             "vpage 0"):
        kernel.check_invariants()


def test_one_walk_of_the_translations_per_check(monkeypatch):
    """translation-copyset and pmap-state share one walk: each Pmap's
    entries are read once per full check."""
    from repro.machine.pmap import Pmap

    harness = corrupted(make_harness())
    walked = []
    entries = Pmap.entries
    monkeypatch.setattr(
        Pmap, "entries", lambda pmap: (walked.append(pmap), entries(pmap))[1])
    InvariantChecker(harness.kernel.coherent).check()
    pmaps = harness.kernel.coherent.cmaps[harness.aspace_id].pmaps()
    assert sorted(p.processor_index for p in walked) == sorted(pmaps)
