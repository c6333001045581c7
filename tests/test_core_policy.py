"""Tests for the replication policy family (paper section 4.2)."""

import pytest

from repro.core import CpageState
from repro.policy.base import Action, FaultContext
from repro.policy.fixed import (
    AceStylePolicy,
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from repro.core.cpage import Cpage
from repro.machine import MachineParams, MemoryModule


def _single_copy_page(written=True):
    params = MachineParams(n_processors=2, frames_per_module=4)
    module = MemoryModule(0, params)
    page = Cpage(0, home_module=0)
    page.add_frame(module.allocate())
    page.has_write_mapping = written
    page.recompute_state()
    return page


def ctx(page, now, write=False, proc=1):
    return FaultContext(cpage=page, processor=proc, now=now, write=write)


# -- TimestampFreezePolicy -------------------------------------------------------


def test_no_invalidation_history_caches():
    policy = TimestampFreezePolicy(t1=10e6)
    page = _single_copy_page()
    assert policy.decide(ctx(page, now=0)) is Action.CACHE
    assert not page.frozen


def test_recent_invalidation_freezes():
    policy = TimestampFreezePolicy(t1=10e6)
    page = _single_copy_page()
    page.last_invalidation = 1_000_000
    decision = policy.decide(ctx(page, now=2_000_000))
    assert decision is Action.REMOTE_MAP
    assert page.frozen
    assert page.stats.freezes == 1
    assert policy.frozen_pages == [page]


def test_stale_invalidation_caches():
    policy = TimestampFreezePolicy(t1=10e6)
    page = _single_copy_page()
    page.last_invalidation = 0
    assert policy.decide(ctx(page, now=10_000_000)) is Action.CACHE
    assert not page.frozen


def test_frozen_page_stays_frozen_by_default():
    """The default variant keeps remote-mapping until explicitly thawed,
    even after the window expires."""
    policy = TimestampFreezePolicy(t1=10e6)
    page = _single_copy_page()
    page.last_invalidation = 0
    policy.freeze(page, now=1)
    assert policy.decide(ctx(page, now=100_000_000)) is Action.REMOTE_MAP
    assert page.frozen


def test_thaw_on_fault_variant():
    policy = TimestampFreezePolicy(t1=10e6, thaw_on_fault=True)
    page = _single_copy_page()
    page.last_invalidation = 0
    policy.freeze(page, now=1)
    # within the window: stays frozen
    assert policy.decide(ctx(page, now=5_000_000)) is Action.REMOTE_MAP
    # after the window: the fault itself thaws it
    assert policy.decide(ctx(page, now=20_000_000)) is Action.CACHE
    assert not page.frozen
    assert page.stats.thaws == 1


def test_freeze_requires_single_copy():
    policy = TimestampFreezePolicy()
    params = MachineParams(n_processors=2, frames_per_module=4)
    page = Cpage(0, 0)
    page.add_frame(MemoryModule(0, params).allocate())
    page.add_frame(MemoryModule(1, params).allocate())
    page.recompute_state()
    with pytest.raises(ValueError):
        policy.freeze(page, now=0)
    # decide() must not try to freeze a replicated page
    page.last_invalidation = 0
    assert policy.decide(ctx(page, now=1)) is Action.CACHE


def test_thaw_idempotent():
    policy = TimestampFreezePolicy()
    page = _single_copy_page()
    policy.freeze(page, now=0)
    policy.thaw(page, now=1)
    policy.thaw(page, now=2)
    assert page.stats.thaws == 1
    assert policy.frozen_pages == []


def test_freeze_idempotent():
    policy = TimestampFreezePolicy()
    page = _single_copy_page()
    policy.freeze(page, now=0)
    policy.freeze(page, now=1)
    assert page.stats.freezes == 1
    assert len(policy.frozen_pages) == 1


# -- simple policies -------------------------------------------------------------------


def test_always_replicate_always_caches():
    policy = AlwaysReplicatePolicy()
    page = _single_copy_page()
    page.last_invalidation = 1
    assert policy.decide(ctx(page, now=2)) is Action.CACHE


def test_never_cache_places_then_remote_maps():
    policy = NeverCachePolicy()
    empty = Cpage(0, 0)
    assert policy.decide(ctx(empty, now=0)) is Action.CACHE
    page = _single_copy_page()
    assert policy.decide(ctx(page, now=0)) is Action.REMOTE_MAP


# -- ACE-style policy ---------------------------------------------------------------------


def test_ace_replicates_read_only_pages():
    policy = AceStylePolicy(max_migrations=2)
    page = _single_copy_page(written=False)
    assert policy.decide(ctx(page, now=0)) is Action.CACHE


def test_ace_never_replicates_written_pages():
    policy = AceStylePolicy(max_migrations=2)
    page = _single_copy_page()
    page.stats.write_faults = 1
    assert policy.decide(ctx(page, now=0, write=False)) is Action.REMOTE_MAP


def test_ace_migrates_up_to_limit_then_freezes():
    policy = AceStylePolicy(max_migrations=2)
    page = _single_copy_page()
    page.stats.write_faults = 1
    assert policy.decide(ctx(page, now=0, write=True)) is Action.CACHE
    page.stats.migrations = 2
    decision = policy.decide(ctx(page, now=0, write=True))
    assert decision is Action.REMOTE_MAP
    assert page.frozen
    assert policy.decide(ctx(page, now=99, write=True)) is Action.REMOTE_MAP


def test_policy_names_informative():
    assert "10" in TimestampFreezePolicy(t1=10e6).name
    assert "thaw" in TimestampFreezePolicy(thaw_on_fault=True).name
    assert AceStylePolicy(3).name == "ace(max_migrations=3)"


def test_fault_context_is_immutable():
    """One is built per policy-consulted fault (a tuple now, not a
    frozen dataclass); a policy must still be unable to edit it."""
    context = ctx(Cpage(0, home_module=0), proc=2, now=5, write=True)
    assert (context.processor, context.now, context.write) == (2, 5, True)
    for name in ("cpage", "processor", "now", "write", "extra"):
        with pytest.raises(AttributeError):
            setattr(context, name, None)
