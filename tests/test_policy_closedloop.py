"""Closed-loop proof that adaptation pays (the issue's acceptance bar).

Two halves:

* the :class:`~repro.policy.adaptive.AdaptiveFreezePolicy` *strictly*
  beats the paper's fixed policy on the section 4.2 anecdote
  configuration (gauss with the lock colocated on the matrix-size page)
  and on generated false-sharing specs -- measured end to end through
  the ``ablation_adaptive`` bench target, the same numbers
  ``BENCH_smoke.json`` pins;
* ``repro tune`` is a real closed loop: it replays candidate parameter
  sets against a recorded bundle, the document it emits is
  deterministic and byte-stable, and its winner reproduces the reported
  simulated time when replayed.
"""

import pytest

from repro import doc
from repro.bench import TARGETS
from repro.bench.targets import execute_point
from repro.policy.registry import make_policy
from repro.policy.tune import (
    TUNE_SCHEMA,
    TuneError,
    tune,
)
from repro.replay import TraceError, record_spec, replay_trace
from repro.workloads import generate_spec
from repro.workloads.generate import bench_spec_for, run_spec

#: generated false-sharing specs the adaptive policy must win on, and
#: the defrost period that reproduces the section 4.2 ping-pong there
FS_SEEDS = (102, 112, 116)
FS_DEFROST_PERIOD = 1e6


# -- adaptive beats fixed -----------------------------------------------------


@pytest.fixture(scope="module")
def ablation():
    target = TARGETS["ablation_adaptive"]
    _config, points = target.points("smoke")
    ok = {name: execute_point(spec, seed=0) for name, spec in points}
    return target.derive(ok)


def test_adaptive_beats_fixed_on_sec42_anecdote(ablation):
    case = ablation["cases"]["gauss-colocated"]
    assert case["adaptive_wins"] is True
    assert case["adaptive_ms"] < case["fixed_ms"]
    assert case["win_pct"] > 0


def test_adaptive_beats_fixed_on_false_sharing_specs(ablation):
    gen_cases = {
        name: case
        for name, case in ablation["cases"].items()
        if name != "gauss-colocated"
    }
    assert len(gen_cases) >= 3
    for name, case in gen_cases.items():
        assert case["adaptive_wins"] is True, (
            f"{name}: adaptive {case['adaptive_ms']}ms did not beat "
            f"fixed {case['fixed_ms']}ms")
    assert ablation["all_wins"] is True


@pytest.mark.parametrize("seed", FS_SEEDS)
def test_adaptive_win_reproduces_through_run_spec(seed):
    """The bench-target wins are not an artifact of the harness: the
    same comparison through plain ``run_spec`` agrees."""
    spec = generate_spec(seed, "smoke")
    _k, fixed = run_spec(
        spec, policy="freeze", defrost_period=FS_DEFROST_PERIOD)
    _k, adaptive = run_spec(
        spec, policy="adaptive", defrost_period=FS_DEFROST_PERIOD)
    assert adaptive.sim_time_ns < fixed.sim_time_ns


# -- the tuning loop ----------------------------------------------------------


@pytest.fixture(scope="module")
def fs_recording():
    spec = generate_spec(FS_SEEDS[0], "smoke")
    bundle, _result = record_spec(bench_spec_for(spec))
    return bundle


def test_tune_document_shape(fs_recording):
    doc = tune(fs_recording, policy="adaptive")
    assert doc["schema"] == TUNE_SCHEMA
    assert doc["policy"] == "adaptive"
    assert doc["baseline"]["policy"] == "freeze"
    assert doc["baseline"]["sim_time_ns"] > 0
    assert len(doc["trials"]) == 4  # the default adaptive grid
    assert doc["sim_time_ns"] == min(
        t["sim_time_ns"] for t in doc["trials"])
    assert doc["policy_args"] in [t["policy_args"] for t in doc["trials"]]
    want = 100.0 * (
        doc["baseline"]["sim_time_ns"] - doc["sim_time_ns"]
    ) / doc["baseline"]["sim_time_ns"]
    assert doc["improvement_pct"] == round(want, 4)


def test_tune_is_deterministic_and_byte_stable(fs_recording):
    a = tune(fs_recording, policy="adaptive")
    b = tune(fs_recording, policy="adaptive")
    assert a == b
    assert doc.pretty(a) == doc.pretty(b)


def test_tune_winner_replays_to_reported_time(fs_recording):
    """Closing the loop: the winning parameter set, replayed under the
    same bundle, reproduces exactly the simulated time the document
    reports -- and it constructs through the ordinary registry."""
    doc = tune(fs_recording, policy="adaptive")
    policy = make_policy(doc["policy"], doc["policy_args"])
    assert policy is not None
    replay = replay_trace(
        fs_recording, policy=doc["policy"], policy_args=doc["policy_args"])
    assert replay.sim_time_ns == doc["sim_time_ns"]


def test_tune_custom_candidates_and_tie_break(fs_recording):
    """With a single candidate the winner is forced; with duplicated
    candidates the earliest wins (deterministic tie-break)."""
    single = tune(
        fs_recording, policy="adaptive",
        candidates=({"t1_hot_factor": 16.0},))
    assert single["policy_args"] == {"t1_hot_factor": 16.0}
    dup = tune(
        fs_recording, policy="adaptive",
        candidates=({"t1_hot_factor": 64.0}, {"t1_hot_factor": 64.0}))
    assert dup["policy_args"] == {"t1_hot_factor": 64.0}
    assert dup["trials"][0]["sim_time_ns"] == dup["trials"][1]["sim_time_ns"]


def test_tune_competitive_grid(fs_recording):
    doc = tune(fs_recording, policy="competitive")
    assert doc["policy"] == "competitive"
    assert [t["policy_args"] for t in doc["trials"]] == [
        {"buy": 2.0}, {"buy": 8.0}, {"buy": 32.0}]


def test_tune_rejects_untunable_policy(fs_recording):
    with pytest.raises(TuneError, match="not tunable"):
        tune(fs_recording, policy="freeze")
    with pytest.raises(TuneError, match="no candidate"):
        tune(fs_recording, policy="adaptive", candidates=())


def test_tune_rejects_unreadable_bundle(tmp_path):
    with pytest.raises(TraceError, match="cannot read"):
        tune(tmp_path / "missing.trace")
    garbage = tmp_path / "garbage.trace"
    garbage.write_bytes(b"not a bundle")
    with pytest.raises(TraceError, match="bad magic"):
        tune(garbage)
