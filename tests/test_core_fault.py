"""Tests for the coherent page fault handler: every Figure 4 transition."""

import numpy as np
import pytest

from repro.core import CpageState
from repro.core.fault import ProtectionError
from repro.machine.params import MachineParams
from repro.policy.fixed import AlwaysReplicatePolicy
from repro.machine.pmap import Rights

from tests.conftest import make_harness


# -- empty-state transitions -------------------------------------------------------


def test_empty_read_fill_goes_present1(harness):
    action = harness.fault(0, write=False)
    assert action == "fill"
    assert harness.cpage.state is CpageState.PRESENT1
    assert harness.cpage.n_copies == 1
    entry = harness.pmap_entry(0)
    assert entry.rights == Rights.READ
    assert not entry.remote


def test_empty_write_fill_goes_modified(harness):
    action = harness.fault(1, write=True)
    assert action == "fill"
    assert harness.cpage.state is CpageState.MODIFIED
    assert harness.pmap_entry(1).rights == Rights.WRITE
    assert harness.cpage.frames[1].allocated


def test_fill_respects_placement_module(harness):
    harness.cpage.placement_module = 3
    harness.fault(0, write=False)
    assert list(harness.cpage.frames) == [3]
    assert harness.pmap_entry(0).remote


def test_fill_installs_backing_data():
    harness = make_harness()
    backing = np.arange(10, dtype=np.int64)
    harness.cpage.backing = backing
    harness.fault(0, write=False)
    frame = harness.cpage.frames[0]
    assert np.array_equal(frame.data[:10], backing)


# -- present1 transitions --------------------------------------------------------


def test_read_with_local_copy_just_maps(harness):
    harness.fault(0, write=False)
    action = harness.fault(0, write=False)
    assert action == "map_local"
    assert harness.cpage.state is CpageState.PRESENT1


def test_present1_read_replicates_to_present_plus(harness):
    harness.fault(0, write=False)
    action = harness.fault(1, write=False)
    assert action == "replicate"
    assert harness.cpage.state is CpageState.PRESENT_PLUS
    assert set(harness.cpage.frames) == {0, 1}
    assert harness.cpage.stats.replications == 1


def test_present1_read_remote_maps_under_never_policy():
    harness = make_harness(policy="never")
    harness.fault(0, write=False)
    action = harness.fault(1, write=False)
    assert action == "remote_map"
    assert harness.cpage.state is CpageState.PRESENT1
    entry = harness.pmap_entry(1)
    assert entry.remote and entry.rights == Rights.READ


def test_present1_write_upgrade_by_holder(harness):
    harness.fault(0, write=False)
    action = harness.fault(0, write=True)
    assert action == "upgrade"
    assert harness.cpage.state is CpageState.MODIFIED
    assert harness.cpage.stats.invalidations == 0  # neither invalidation
    assert harness.machine.xfer.transfer_count == 0  # nor reclamation/copy
    assert harness.pmap_entry(0).rights == Rights.WRITE


def test_present1_write_migrates_from_remote_holder(harness):
    harness.fault(0, write=False)
    action = harness.fault(1, write=True)
    assert action == "migrate"
    assert harness.cpage.state is CpageState.MODIFIED
    assert list(harness.cpage.frames) == [1]
    assert harness.cpage.stats.migrations == 1
    assert harness.cpage.last_invalidation is not None
    # the original holder's translation is gone
    assert harness.pmap_entry(0) is None


def test_present1_write_remote_maps_under_never_policy():
    harness = make_harness(policy="never")
    harness.fault(0, write=False)
    action = harness.fault(1, write=True)
    assert action == "remote_map"
    assert harness.cpage.state is CpageState.MODIFIED
    assert list(harness.cpage.frames) == [0]
    entry = harness.pmap_entry(1)
    assert entry.remote and entry.rights == Rights.WRITE
    # reader on node 0 keeps its (now single-copy) read mapping
    assert harness.pmap_entry(0) is not None


# -- present+ transitions -----------------------------------------------------------


def _replicated(harness, nodes=(0, 1, 2)):
    harness.fault(nodes[0], write=False)
    for node in nodes[1:]:
        harness.fault(node, write=False)
    assert harness.cpage.state is CpageState.PRESENT_PLUS
    return harness


def test_present_plus_write_with_local_copy_collapses(harness):
    _replicated(harness)
    action = harness.fault(0, write=True)
    assert action == "collapse"
    assert harness.cpage.state is CpageState.MODIFIED
    assert list(harness.cpage.frames) == [0]
    # the other replicas' frames were freed
    module = harness.machine.modules[1]
    assert module.n_free == len(module.frames)
    module = harness.machine.modules[2]
    assert module.n_free == len(module.frames)
    assert harness.cpage.last_invalidation is not None
    assert harness.pmap_entry(1) is None
    assert harness.pmap_entry(2) is None


def test_present_plus_write_migrates_to_new_node(harness):
    _replicated(harness, nodes=(0, 1))
    action = harness.fault(3, write=True)
    assert action == "migrate"
    assert list(harness.cpage.frames) == [3]
    assert harness.cpage.state is CpageState.MODIFIED


def test_present_plus_write_remote_map_collapses_to_one():
    harness = make_harness(policy="never")
    # force two replicas via the always policy first
    from repro.policy.fixed import AlwaysReplicatePolicy, NeverCachePolicy

    harness.kernel.coherent.fault_handler.policy = AlwaysReplicatePolicy()
    _replicated(harness, nodes=(0, 1))
    harness.kernel.coherent.fault_handler.policy = NeverCachePolicy()
    action = harness.fault(3, write=True)
    assert action == "remote_map"
    assert harness.cpage.state is CpageState.MODIFIED
    assert harness.cpage.n_copies == 1
    assert harness.pmap_entry(3).remote


def test_replicas_share_identical_data(harness):
    harness.fault(0, write=True)
    frame0 = harness.cpage.frames[0]
    frame0.data[:] = 1234
    harness.fault(1, write=False)
    harness.fault(2, write=False)
    for frame in harness.cpage.frames.values():
        assert np.all(frame.data == 1234)


# -- modified transitions ----------------------------------------------------------


def test_modified_read_replication_restricts_writer(harness):
    harness.fault(0, write=True)
    action = harness.fault(1, write=False)
    assert action == "replicate"
    assert harness.cpage.state is CpageState.PRESENT_PLUS
    # the writer's mapping was restricted to read-only, not removed
    entry = harness.pmap_entry(0)
    assert entry is not None and entry.rights == Rights.READ
    assert harness.cpage.stats.restrictions == 1
    # a restriction is not an invalidation: the freeze timestamp is unset
    assert harness.cpage.last_invalidation is None


def test_modified_read_remote_map_under_never_policy():
    harness = make_harness(policy="never")
    harness.fault(0, write=True)
    action = harness.fault(1, write=False)
    assert action == "remote_map"
    assert harness.cpage.state is CpageState.MODIFIED
    assert harness.pmap_entry(0).rights == Rights.WRITE  # untouched


def test_modified_write_migration_moves_single_copy(harness):
    harness.fault(0, write=True)
    harness.cpage.frames[0].data[:] = 77
    action = harness.fault(2, write=True)
    assert action == "migrate"
    assert list(harness.cpage.frames) == [2]
    assert np.all(harness.cpage.frames[2].data == 77)
    module = harness.machine.modules[0]
    assert module.n_free == len(module.frames)


def test_modified_write_remote_map_allows_two_writers():
    harness = make_harness(policy="never")
    harness.fault(0, write=True)
    action = harness.fault(1, write=True)
    assert action == "remote_map"
    assert harness.pmap_entry(0).rights == Rights.WRITE
    assert harness.pmap_entry(1).rights == Rights.WRITE
    assert harness.cpage.n_copies == 1  # single copy keeps it coherent


def test_modified_local_read_by_second_aspace_maps_local(harness):
    harness.fault(0, write=True)
    action = harness.fault(0, write=False)
    assert action == "map_local"
    assert harness.cpage.state is CpageState.MODIFIED


# -- rights and errors ----------------------------------------------------------------


def test_write_to_readonly_binding_raises():
    harness = make_harness(rights=Rights.READ)
    with pytest.raises(ProtectionError):
        harness.fault(0, write=True)


def test_fault_on_unmapped_vpage_raises(harness):
    from repro.kernel.vm import AddressError

    with pytest.raises(AddressError):
        harness.kernel.fault(0, harness.aspace_id, 99, False, 0)


def test_failed_fault_leaves_no_cmap_behind(harness):
    """A wild reference used to create an empty Cmap for an address
    space that does not exist, which every Cmap walk then visited."""
    from repro.kernel.vm import AddressError

    coherent = harness.kernel.coherent
    before = list(coherent.cmaps)
    with pytest.raises(AddressError):
        harness.kernel.fault(0, 999, 0, False, 0)
    with pytest.raises(AddressError):
        harness.kernel.fault(0, harness.aspace_id, 99, False, 0)
    assert list(coherent.cmaps) == before
    harness.kernel.check_invariants()


# -- reference masks and invariants ------------------------------------------------------


def test_reference_mask_tracks_mappings(harness):
    harness.fault(0, write=False)
    harness.fault(1, write=False)
    entry = harness.cmap_entry()
    assert entry.ref_mask & 0b111 == 0b011


def test_collapse_clears_reference_bits(harness):
    harness.fault(0, write=False)
    harness.fault(1, write=False)
    harness.fault(0, write=True)
    entry = harness.cmap_entry()
    assert entry.ref_mask & 0b11 == 0b01


def test_invariants_hold_after_random_walk(harness):
    rng = np.random.default_rng(42)
    for _ in range(60):
        proc = int(rng.integers(0, 4))
        write = bool(rng.integers(0, 2))
        harness.fault(proc, write=write, settle=False)
        harness.settle(1e6)
        harness.kernel.check_invariants()


# -- out-of-frames degradation ------------------------------------------------------------


def test_replication_degrades_to_remote_map_when_full():
    harness = make_harness(frames_per_module=1)
    harness.fault(0, write=False)
    # consume node 1's only frame with another page
    other = harness.kernel.coherent.cpages.create(home_module=1)
    harness.kernel.coherent.map_page(harness.aspace_id, 1, other,
                                     Rights.WRITE)
    harness.kernel.fault(1, harness.aspace_id, 1, True,
                         harness.kernel.engine.now)
    action = harness.fault(1, write=False)
    assert action == "remote_map"
    assert harness.pmap_entry(1).remote


def test_migration_degrades_to_remote_map_when_full():
    harness = make_harness(frames_per_module=1)
    harness.fault(0, write=False)
    other = harness.kernel.coherent.cpages.create(home_module=1)
    harness.kernel.coherent.map_page(harness.aspace_id, 1, other,
                                     Rights.WRITE)
    harness.kernel.fault(1, harness.aspace_id, 1, True,
                         harness.kernel.engine.now)
    action = harness.fault(1, write=True)
    assert action == "remote_map"
    assert harness.cpage.state is CpageState.MODIFIED


# -- the entry point -------------------------------------------------------------------


def test_kernel_fault_is_the_handlers_entry(harness):
    """``kernel.fault`` is the handler's bound ``handle``: a fault makes
    no frame before the handler's.  Called through the class it
    forwards the same way, and returns the completion time."""
    from repro.kernel.kernel import Kernel

    kernel = harness.kernel
    assert kernel.fault == kernel.coherent.fault_handler.handle
    end = Kernel.fault(kernel, 0, harness.aspace_id, harness.vpage, False,
                       kernel.engine.now)
    assert type(end) is int and end > kernel.engine.now
    assert harness.cpage.state is CpageState.PRESENT1


def test_a_wrapper_on_the_class_sees_every_fault(monkeypatch):
    """What a profiler does (``perf/tracing.py`` wraps ``Kernel.fault``
    on the class): every fault the executor takes goes through it."""
    from repro import make_kernel, run_program
    from repro.kernel.kernel import Kernel
    from repro.workloads import GaussianElimination

    seen = []
    entry = Kernel.fault

    def wrapper(kernel, *args):
        seen.append(args)
        return entry(kernel, *args)

    monkeypatch.setattr(Kernel, "fault", wrapper)
    kernel = make_kernel(n_processors=4)
    run_program(kernel, GaussianElimination(n=8, n_threads=4))
    assert len(seen) == kernel.coherent.fault_handler.fault_count > 0


def test_a_handler_without_a_vm_layer_faults_only_on_mapped_pages():
    from repro.core import CoherencyError, CoherentMemorySystem
    from repro.machine import Machine

    system = CoherentMemorySystem(
        Machine(MachineParams(n_processors=2)), defrost_enabled=False)
    with pytest.raises(CoherencyError, match="no VM layer"):
        system.fault_handler.handle(0, 3, 0, False, 0)
    assert system.cmaps == {}


class _NotingPolicy(AlwaysReplicatePolicy):
    """Replicates, and records each invalidation it is told of."""

    def __init__(self) -> None:
        super().__init__()
        self.noted: list[tuple[int, int]] = []

    def note_invalidation(self, cpage, now: int) -> None:
        self.noted.append((cpage.index, now))


def test_a_policy_that_overrides_the_hook_is_told_of_each_collapse():
    """The handler skips the base class's no-op hook; a policy with its
    own is still called, once per collapse, at the stamped time."""
    harness = make_harness(policy=_NotingPolicy())
    policy = harness.kernel.coherent.fault_handler.policy
    _replicated(harness)
    assert policy.noted == []
    assert harness.fault(0, write=True) == "collapse"
    assert policy.noted == [(harness.cpage.index,
                             harness.cpage.last_invalidation)]
    _replicated(harness)  # re-replicated; a remote write migrates
    assert harness.fault(3, write=True) == "migrate"
    assert len(policy.noted) == 2
    assert policy.noted[-1] == (harness.cpage.index,
                                harness.cpage.last_invalidation)
