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
    assert checker.violations == []


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
    assert checker.violations == []


def test_install_is_idempotent():
    harness = make_harness()
    system = harness.kernel.coherent
    first = install_invariant_checker(system)
    second = install_invariant_checker(system)
    assert first is second
    assert system.observers.count(first) == 1


def test_uninstall_removes_every_hook():
    harness, checker = checked_harness()
    checker.uninstall()
    assert checker not in harness.kernel.coherent.observers
    before = checker.checks
    harness.fault(0, write=True)
    assert checker.checks == before


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
    ipt = harness.machine.ipt_of(frame.module_index)
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


def test_collector_mode_accumulates_instead_of_raising():
    harness = corrupted(make_harness())
    harness.cpage.state = CpageState.MODIFIED
    harness.cmap_entry().ref_mask = 0
    checker = InvariantChecker(
        harness.kernel.coherent, raise_on_violation=False
    )
    problems = checker.check()
    assert len(problems) >= 2
    assert checker.violations == problems


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
