"""Tests for the sim-time sampler (repro.telemetry.sampler)."""

import json

import pytest

from repro import make_kernel, run_program
from repro.policy.competitive import MigrationDaemon
from repro.telemetry import MetricsRegistry, SimTimeSampler
from repro.workloads import GaussianElimination, PhaseChangeSharing


def _sampled_run(period_ms=1.0, registry=None, **kernel_kwargs):
    kernel = make_kernel(n_processors=4, **kernel_kwargs)
    sampler = SimTimeSampler(kernel, period_ms=period_ms,
                             registry=registry)
    sampler.start()
    result = run_program(kernel, GaussianElimination(
        n=24, n_threads=4, verify_result=False,
    ))
    return kernel, sampler, result


def test_period_must_be_positive():
    kernel = make_kernel(n_processors=2)
    with pytest.raises(ValueError):
        SimTimeSampler(kernel, period_ms=0)
    with pytest.raises(ValueError):
        SimTimeSampler(kernel, period_ms=-1)


@pytest.mark.parametrize("build", [
    lambda k, period: make_kernel(n_processors=2, defrost_period=period),
    lambda k, period: MigrationDaemon(k.coherent, period=period),
    lambda k, period: SimTimeSampler(k, period_ms=period / 1e6),
], ids=["defrost", "migration", "sampler"])
def test_every_daemon_keeps_one_period_rule(build):
    """Each daemon rounds its period once to whole ns, and refuses one
    that is not finite or rounds below 1 ns: it would tick at t = 0
    forever."""
    kernel = make_kernel(n_processors=2)
    for period in (0.4, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be a finite time >= 1 ns"):
            build(kernel, period)
    built = build(kernel, 5e6)
    daemon = built.coherent.defrost if hasattr(built, "coherent") else built
    assert daemon.period == 5_000_000 and type(daemon.period) is int


def test_sampler_ticks_once_per_period():
    kernel, sampler, result = _sampled_run(period_ms=1.0)
    expected = int(result.sim_time_ms)  # one tick per simulated ms
    assert abs(len(sampler.samples) - expected) <= 1
    stamps = sampler.series("time_ns")
    assert stamps == sorted(stamps)
    deltas = {b - a for a, b in zip(stamps, stamps[1:])}
    assert deltas == {1_000_000}  # exactly 1 ms apart


def test_sample_fields_are_complete_and_consistent():
    kernel, sampler, result = _sampled_run()
    sample = sampler.samples[-1]
    for key in ("faults", "faults_interval", "fault_rate_per_ms",
                "frozen_pages", "freezes", "thaws", "remote_mappings",
                "transfers", "shootdowns", "local_words_interval",
                "remote_words_interval", "queue_depth",
                "events_interval", "node_memory_pressure"):
        assert key in sample, key
    assert sample["record"] == "sample"
    # cumulative fault counts are monotone and interval sums telescope
    faults = sampler.series("faults")
    assert faults == sorted(faults)
    assert sum(sampler.series("faults_interval")) == faults[-1]
    # per-node pressure: one fraction per module, all in [0, 1]
    pressure = sample["node_memory_pressure"]
    assert len(pressure) == kernel.params.n_modules
    assert all(0.0 <= f <= 1.0 for f in pressure)


def test_sampler_sees_frozen_pages():
    kernel = make_kernel(n_processors=4, defrost_period=30e6)
    sampler = SimTimeSampler(kernel, period_ms=0.5)
    sampler.start()
    run_program(kernel, PhaseChangeSharing(n_threads=4))
    assert max(sampler.series("frozen_pages")) > 0


def test_sampler_updates_gauges_when_given_a_registry():
    registry = MetricsRegistry(enabled=True)
    kernel, sampler, _ = _sampled_run(registry=registry)
    assert registry.get("frozen_pages") is not None
    assert registry.get("engine_queue_depth") is not None
    pressure = registry.get("node_memory_pressure")
    assert len(list(pressure.series())) == kernel.params.n_modules


def test_sampling_does_not_change_simulated_results():
    plain = make_kernel(n_processors=4)
    base = run_program(plain, GaussianElimination(
        n=24, n_threads=4, verify_result=False,
    ))
    _, _, sampled = _sampled_run(period_ms=0.25)
    assert sampled.sim_time_ns == base.sim_time_ns
    assert sampled.report.total_faults == base.report.total_faults


def test_max_samples_cap_counts_drops():
    kernel = make_kernel(n_processors=4)
    sampler = SimTimeSampler(kernel, period_ms=1.0, max_samples=5)
    sampler.start()
    run_program(kernel, GaussianElimination(
        n=24, n_threads=4, verify_result=False,
    ))
    assert len(sampler.samples) == 5
    assert sampler.dropped > 0


def test_start_is_idempotent():
    kernel, sampler, _ = _sampled_run()
    before = len(sampler.samples)
    sampler.start()  # no second tick chain
    assert len(sampler.samples) == before
    stamps = sampler.series("time_ns")
    assert len(stamps) == len(set(stamps))


def test_to_jsonl_round_trips(tmp_path):
    _, sampler, _ = _sampled_run()
    text = sampler.to_jsonl()
    lines = text.splitlines()
    assert len(lines) == len(sampler.samples)
    assert json.loads(lines[0])["record"] == "sample"
    out = tmp_path / "samples.jsonl"
    with open(out, "w") as stream:
        sampler.to_jsonl(stream)
    assert out.read_text() == text


# -- zero-duration hardening --------------------------------------------------


def test_zero_interval_sample_has_zero_rate_not_a_crash():
    """Two snapshots at the same simulated instant: the second must
    report rate 0.0, never ZeroDivisionError."""
    kernel = make_kernel(n_processors=2)
    sampler = SimTimeSampler(kernel, period_ms=1.0)
    first = sampler.sample_now()
    second = sampler.sample_now()  # engine never advanced
    assert first["time_ns"] == second["time_ns"] == 0
    assert first["fault_rate_per_ms"] == 0.0
    assert second["fault_rate_per_ms"] == 0.0
    assert second["faults_interval"] == 0


def test_rates_derive_from_actual_elapsed_interval():
    kernel, sampler, result = _sampled_run(period_ms=1.0)
    # a final snapshot at the end-of-run instant after the last tick
    final = sampler.sample_now()
    again = sampler.sample_now()
    assert again["fault_rate_per_ms"] == 0.0
    for sample in sampler.samples:
        assert sample["fault_rate_per_ms"] >= 0.0
