"""Tests for the defrost daemon (paper section 4.2)."""

import pytest

from repro.core import CpageState
from repro.machine.pmap import Rights

from tests.conftest import make_harness


def _freeze_by_interference(harness):
    """Alternate writers so the policy freezes the page."""
    harness.fault(0, write=True)
    harness.fault(1, write=True)  # migrate: records an invalidation
    # fault again within t1: freeze
    action = harness.fault(2, write=True, settle=False)
    assert action == "remote_map"
    assert harness.cpage.frozen
    return harness


def test_interference_freezes_page(freeze_harness):
    harness = freeze_harness
    _freeze_by_interference(harness)
    assert harness.cpage.state is CpageState.MODIFIED
    assert harness.cpage.n_copies == 1


def test_defrost_thaws_and_invalidates():
    harness = make_harness(policy="freeze")
    _freeze_by_interference(harness)
    daemon = harness.kernel.coherent.defrost
    thawed = daemon.run_once()
    assert thawed == 1
    assert not harness.cpage.frozen
    assert harness.cpage.stats.thaws == 1
    # all mappings were invalidated; the single copy survives
    for proc in range(4):
        assert harness.pmap_entry(proc) is None
    assert harness.cpage.n_copies == 1
    assert harness.cpage.state is CpageState.PRESENT1


def test_defrost_preserves_invalidation_timestamp():
    """The thaw's own invalidation must not count as interference, or
    every thawed page would immediately re-freeze."""
    harness = make_harness(policy="freeze")
    _freeze_by_interference(harness)
    before = harness.cpage.last_invalidation
    harness.kernel.coherent.defrost.run_once()
    assert harness.cpage.last_invalidation == before


def test_after_thaw_page_can_replicate_again():
    harness = make_harness(policy="freeze")
    _freeze_by_interference(harness)
    harness.kernel.coherent.defrost.run_once()
    harness.settle(20e6)  # let the t1 window expire
    action = harness.fault(0, write=False)
    assert action == "replicate"
    assert harness.cpage.state is CpageState.PRESENT_PLUS


def test_periodic_daemon_fires_on_schedule():
    harness = make_harness(policy="freeze")
    daemon = harness.kernel.coherent.defrost
    daemon.period = 50e6  # 50 ms for the test
    daemon.start()
    _freeze_by_interference(harness)
    harness.kernel.engine.run(until=harness.kernel.engine.now + 200e6)
    assert daemon.runs >= 3
    assert daemon.pages_thawed >= 1
    assert not harness.cpage.frozen


def test_disabled_daemon_leaves_pages_frozen():
    harness = make_harness(policy="freeze")
    daemon = harness.kernel.coherent.defrost
    daemon.period = 50e6
    daemon.enabled = False
    daemon.start()
    _freeze_by_interference(harness)
    harness.kernel.engine.run(until=harness.kernel.engine.now + 200e6)
    assert harness.cpage.frozen


def test_run_once_with_nothing_frozen():
    harness = make_harness(policy="freeze")
    assert harness.kernel.coherent.defrost.run_once() == 0


def test_frozen_page_grants_full_rights_to_remote_mapper():
    """Paper section 3.3: a frozen Cpage's remote mappings get the full
    rights the VM system permits."""
    harness = make_harness(policy="freeze")
    _freeze_by_interference(harness)
    action = harness.fault(3, write=False, settle=False)
    assert action == "remote_map"
    entry = harness.pmap_entry(3)
    assert entry.rights == Rights.WRITE  # full VM rights, not just READ
