"""Unit tests for the replication-policy zoo (``repro.policy``).

Covers the registry, the new protocol-observation hooks, and the three
new zoo members (online competitive, per-page adaptive, profiler-tuned)
at the policy-object level; end-to-end behaviour is exercised by the
equivalence, closed-loop and replay suites.
"""

import pytest

from repro import make_kernel, run_program
from repro.core.cpage import Cpage
from repro.policy import (
    Action,
    AdaptiveFreezePolicy,
    FaultContext,
    OnlineCompetitivePolicy,
    ReplicationPolicy,
    TimestampFreezePolicy,
    TunedPolicy,
)
from repro.policy.registry import POLICIES, make_policy, policy_names
from repro.workloads import GaussianElimination


def _page(index=0, copies=1, last_invalidation=None):
    cpage = Cpage(index=index, home_module=0)
    for module in range(copies):
        cpage.frames[module] = object()
    cpage.last_invalidation = last_invalidation
    return cpage


def _ctx(cpage, processor=1, now=0, write=False):
    return FaultContext(
        cpage=cpage, processor=processor, now=now, write=write
    )


# -- registry -----------------------------------------------------------------


def test_registry_names():
    assert policy_names() == tuple(sorted(POLICIES))
    for name in (
        "freeze", "always", "never", "ace", "competitive", "adaptive",
        "tuned",
    ):
        assert name in POLICIES


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_every_policy_constructs_and_decides(name):
    policy = make_policy(name, None)
    assert isinstance(policy, ReplicationPolicy)
    action = policy.decide(_ctx(_page()))
    assert action in (Action.CACHE, Action.REMOTE_MAP)


def test_make_policy_none_means_kernel_default():
    assert make_policy(None, None) is None


def test_registry_freeze_is_the_papers_policy():
    policy = make_policy("freeze", None)
    assert isinstance(policy, TimestampFreezePolicy)
    assert policy.t1 == 10_000_000.0
    assert policy.thaw_on_fault is False


def test_make_policy_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("nope", None)


def test_make_policy_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_policy("freeze", {"no_such_parameter": 1})
    with pytest.raises(ValueError):
        make_policy("adaptive", {"t1_hot_factor": 0.5})
    with pytest.raises(ValueError):
        make_policy("competitive", {"buy": -1})


# -- base-class hooks ---------------------------------------------------------


def test_base_hooks_are_neutral():
    policy = make_policy("freeze", None)
    cpage = _page(last_invalidation=5)
    policy.note_invalidation(cpage, 10)  # no-op, must not raise
    assert policy.should_thaw(cpage, 10**12) is True


def test_freeze_requires_single_copy():
    policy = make_policy("freeze", None)
    with pytest.raises(ValueError, match="copies"):
        policy.freeze(_page(copies=2), 0)


# -- online competitive -------------------------------------------------------


def test_competitive_rents_then_buys():
    policy = OnlineCompetitivePolicy(buy=3.0, rent=1.0)
    cpage = _page()
    assert policy.decide(_ctx(cpage, now=1)) is Action.REMOTE_MAP
    assert policy.decide(_ctx(cpage, now=2)) is Action.REMOTE_MAP
    assert policy.decide(_ctx(cpage, now=3)) is Action.CACHE
    assert policy.buys == 1
    # the accumulator reset: the next epoch rents from zero again
    assert policy.decide(_ctx(cpage, now=4)) is Action.REMOTE_MAP


def test_competitive_writes_rent_cheaper():
    policy = OnlineCompetitivePolicy(buy=2.0, rent=1.0, write_rent=0.5)
    cpage = _page()
    for now in range(3):
        assert policy.decide(
            _ctx(cpage, now=now, write=True)) is Action.REMOTE_MAP
    assert policy.decide(_ctx(cpage, now=3, write=True)) is Action.CACHE


def test_competitive_invalidation_resets_epoch():
    policy = OnlineCompetitivePolicy(buy=2.0, rent=1.0)
    cpage = _page()
    policy.decide(_ctx(cpage, now=1))
    policy.note_invalidation(cpage, 2)
    # rent accrued against the old configuration is forgotten
    assert policy.decide(_ctx(cpage, now=3)) is Action.REMOTE_MAP
    assert policy.decide(_ctx(cpage, now=4)) is Action.CACHE


def test_competitive_from_params_uses_break_even():
    from repro.policy.competitive import break_even_words
    from repro.machine.machine import MachineParams

    params = MachineParams(n_processors=4)
    policy = OnlineCompetitivePolicy.from_params(params, words_per_fault=16)
    assert policy.buy == max(1.0, break_even_words(params) / 16.0)


# -- per-page adaptive --------------------------------------------------------


def test_adaptive_reinvalidation_after_thaw_marks_hot():
    policy = AdaptiveFreezePolicy(t1=10.0, t1_hot_factor=8.0)
    cpage = _page()
    policy.freeze(cpage, 0)
    policy.thaw(cpage, 100)
    assert not policy.is_hot(cpage)
    # invalidated within hot_threshold (= t1) of the thaw: the thaw was
    # a mistake, the interference is still there
    policy.note_invalidation(cpage, 105)
    assert policy.is_hot(cpage)
    assert policy.t1_for(cpage) == 10.0 * 8.0


def test_adaptive_late_invalidation_stays_cold():
    policy = AdaptiveFreezePolicy(t1=10.0)
    cpage = _page()
    policy.freeze(cpage, 0)
    policy.thaw(cpage, 100)
    policy.note_invalidation(cpage, 500)  # long after the thaw
    assert not policy.is_hot(cpage)
    assert policy.t1_for(cpage) == policy.t1


def test_adaptive_ewma_marks_steady_interference_hot():
    policy = AdaptiveFreezePolicy(t1=100.0, ewma_beta=0.5)
    cpage = _page()
    for now in (0, 10, 20, 30):
        policy.note_invalidation(cpage, now)
    assert policy._interval_ewma[cpage.index] == 10.0  # learned interval
    assert policy.is_hot(cpage)


def test_adaptive_widened_window_blocks_recaching():
    policy = AdaptiveFreezePolicy(t1=10.0, t1_hot_factor=8.0)
    cpage = _page(last_invalidation=0)
    policy.freeze(cpage, 0)
    policy.thaw(cpage, 20)
    policy.note_invalidation(cpage, 25)  # hot now
    cpage.last_invalidation = 25
    # 30ns after the invalidation: past the base t1=10 window, but well
    # inside the widened 80ns window, so the page re-freezes instead of
    # replicating
    assert policy.decide(_ctx(cpage, now=55)) is Action.REMOTE_MAP
    assert cpage.frozen


def test_adaptive_should_thaw_defers_hot_pages():
    policy = AdaptiveFreezePolicy(t1=10.0, t2_hot=1000.0)
    cpage = _page()
    policy.freeze(cpage, 0)
    policy.thaw(cpage, 50)
    policy.note_invalidation(cpage, 55)  # hot
    policy.freeze(cpage, 60)
    assert policy.should_thaw(cpage, 100) is False
    assert policy.thaws_deferred == 1
    assert policy.should_thaw(cpage, 60 + 1000.0) is True


def test_adaptive_cold_pages_thaw_normally():
    policy = AdaptiveFreezePolicy(t1=10.0)
    cpage = _page()
    policy.freeze(cpage, 0)
    assert policy.should_thaw(cpage, 1) is True
    assert policy.thaws_deferred == 0


def test_adaptive_page_t1_override_wins():
    policy = AdaptiveFreezePolicy(t1=10.0, page_t1={"3": 500.0})
    cpage = _page(index=3)
    assert policy.page_t1 == {3: 500.0}
    assert policy.t1_for(cpage) == 500.0
    policy.freeze(cpage, 0)
    # an overridden window wider than t1 counts as widened: defrost
    # deferral applies to tuned pages too
    assert policy.should_thaw(cpage, 1) is False


def test_adaptive_parameter_validation():
    with pytest.raises(ValueError, match="t1_hot_factor"):
        AdaptiveFreezePolicy(t1_hot_factor=0.0)
    with pytest.raises(ValueError, match="ewma_beta"):
        AdaptiveFreezePolicy(ewma_beta=0.0)
    with pytest.raises(ValueError, match="ewma_beta"):
        AdaptiveFreezePolicy(ewma_beta=1.5)


# -- profiler-tuned -----------------------------------------------------------


def test_tuned_table_coercion_and_validation():
    policy = TunedPolicy(
        table={"0": "cache", "1": "remote_map", "2": "indifferent"}
    )
    assert policy.table == {0: "cache", 1: "remote_map"}
    with pytest.raises(ValueError, match="unknown verdict"):
        TunedPolicy(table={"0": "maybe"})


def test_tuned_pins_cache_pages():
    policy = TunedPolicy(table={0: "cache"})
    cpage = _page(last_invalidation=0)
    # recently invalidated -- the fixed fallback would freeze, the
    # verdict overrides
    assert policy.decide(_ctx(cpage, now=1)) is Action.CACHE
    policy2 = TunedPolicy(table={0: "cache"})
    frozen = _page(last_invalidation=0)
    policy2.freeze(frozen, 0)
    assert policy2.decide(_ctx(frozen, now=1)) is Action.CACHE
    assert not frozen.frozen  # pinned-cache pages thaw on fault


def test_tuned_pins_remote_map_pages():
    policy = TunedPolicy(table={0: "remote_map"})
    cpage = _page()  # never invalidated: fallback would CACHE
    assert policy.decide(_ctx(cpage, now=1)) is Action.REMOTE_MAP
    assert cpage.frozen  # pinned at the first opportunity
    assert policy.should_thaw(cpage, 10**12) is False


def test_tuned_falls_back_to_fixed():
    policy = TunedPolicy(table={7: "remote_map"})
    cold = _page(index=0)
    assert policy.decide(_ctx(cold, now=10**9)) is Action.CACHE
    assert policy.should_thaw(cold, 0) is True


# -- kernel integration -------------------------------------------------------


def test_policy_decision_counter_in_telemetry():
    kernel = make_kernel(
        n_processors=4, policy=make_policy("freeze", None), metrics=True
    )
    run_program(kernel, GaussianElimination(n=16, n_threads=4))
    metric = kernel.metrics.get("policy_decisions_total")
    assert metric is not None
    series = {
        (labels["policy"], labels["action"]): child.value
        for labels, child in metric.series()
    }
    assert series, "no policy decisions recorded"
    assert all(policy == "freeze(t1=10ms)" for policy, _ in series)
    assert sum(series.values()) > 0


def test_adaptive_policy_runs_a_real_workload():
    policy = AdaptiveFreezePolicy()
    kernel = make_kernel(n_processors=4, policy=policy)
    result = run_program(
        kernel, GaussianElimination(n=16, n_threads=4))
    assert result.sim_time_ns > 0


def test_registry_freeze_equals_direct_construction():
    via_registry = make_policy("freeze", {"t1": 5e6})
    direct = TimestampFreezePolicy(t1=5e6)
    assert type(via_registry) is type(direct)
    assert via_registry.t1 == direct.t1
