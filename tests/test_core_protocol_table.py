"""Tests for the declarative Figure 4 transition table, and its agreement
with the live fault handler."""

import pytest

from repro.core import CpageState, TRANSITIONS, format_table, lookup
from repro.policy.base import Action
from repro.policy.fixed import AlwaysReplicatePolicy

from tests.conftest import make_harness


def test_every_state_has_read_and_write_rows():
    for state in CpageState:
        reads = [t for t in TRANSITIONS if t.state is state and not t.write]
        writes = [t for t in TRANSITIONS if t.state is state and t.write]
        assert reads, f"no read transitions from {state}"
        assert writes, f"no write transitions from {state}"


def test_lookup_is_unambiguous():
    for state in CpageState:
        for write in (False, True):
            for local in (False, True):
                for action in (Action.CACHE, Action.REMOTE_MAP):
                    if state is CpageState.EMPTY and local:
                        continue  # empty pages cannot have a local copy
                    tr = lookup(state, write, local, action)
                    assert tr.state is state


def test_empty_transitions_fill():
    assert lookup(CpageState.EMPTY, False, False, None).next_state is (
        CpageState.PRESENT1
    )
    assert lookup(CpageState.EMPTY, True, False, None).next_state is (
        CpageState.MODIFIED
    )


def test_present1_upgrade_needs_no_work():
    tr = lookup(CpageState.PRESENT1, True, True, None)
    assert tr.next_state is CpageState.MODIFIED
    assert not tr.invalidates and not tr.restricts and not tr.copies


def test_only_cache_transitions_copy():
    for tr in TRANSITIONS:
        if tr.copies:
            assert tr.action is Action.CACHE
        if tr.action is Action.REMOTE_MAP:
            assert not tr.copies


def test_modified_is_absorbing_for_writes():
    for tr in TRANSITIONS:
        if tr.write:
            assert tr.next_state is CpageState.MODIFIED


def test_reads_never_reach_modified_from_clean_states():
    for tr in TRANSITIONS:
        if not tr.write and tr.state is not CpageState.MODIFIED:
            assert tr.next_state is not CpageState.MODIFIED


def test_format_table_mentions_all_states():
    text = format_table()
    for state in CpageState:
        assert state.value in text


def test_unknown_lookup_raises():
    with pytest.raises(KeyError):
        lookup(CpageState.EMPTY, False, True, None)


# -- agreement with the live handler ----------------------------------------------


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("policy,action", [
    ("always", Action.CACHE), ("never", Action.REMOTE_MAP),
])
def test_handler_follows_table_from_present1(write, policy, action):
    harness = make_harness(policy=policy)
    harness.fault(0, write=False)  # -> present1 on node 0
    state_before = harness.cpage.state
    harness.fault(1, write=write)
    expected = lookup(state_before, write, False, action)
    assert harness.cpage.state is expected.next_state


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("policy,action", [
    ("always", Action.CACHE), ("never", Action.REMOTE_MAP),
])
def test_handler_follows_table_from_modified(write, policy, action):
    harness = make_harness(policy=policy)
    harness.fault(0, write=True)  # -> modified on node 0
    state_before = harness.cpage.state
    harness.fault(1, write=write)
    expected = lookup(state_before, write, False, action)
    assert harness.cpage.state is expected.next_state


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("policy,action", [
    ("always", Action.CACHE), ("never", Action.REMOTE_MAP),
])
def test_handler_follows_table_from_present_plus(write, policy, action):
    harness = make_harness(policy=policy)
    handler = harness.kernel.coherent.fault_handler
    # only a replicating policy can build the two copies to start from
    policy_under_test, handler.policy = handler.policy, AlwaysReplicatePolicy()
    harness.fault(0, write=False)
    harness.fault(1, write=False)  # -> present+ on nodes 0 and 1
    handler.policy = policy_under_test
    state_before = harness.cpage.state
    assert state_before is CpageState.PRESENT_PLUS
    harness.fault(2, write=write)
    expected = lookup(state_before, write, False, action)
    assert harness.cpage.state is expected.next_state
