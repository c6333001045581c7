"""Edge cases for the analysis layer (speedup curves, the section 4.1
cost model, and the counter vocabulary the BENCH trajectory rests on)."""

import pytest

from repro.analysis import (
    MigrationCostModel,
    SpeedupCurve,
    aggregate_counters,
    g_round_robin,
    measure_speedup,
    run_counters,
)
from repro.analysis.costmodel import COUNTER_FIELDS
from repro.profile import (
    AccessProbe,
    ProfileSource,
    compute_attribution,
    page_verdict,
)
from repro.profile.source import PARAM_FIELDS
from repro.runtime import make_kernel, run_program
from repro.workloads import PhaseChangeSharing


# -- SpeedupCurve -------------------------------------------------------------


def test_from_times_requires_measurements():
    with pytest.raises(ValueError, match="at least one"):
        SpeedupCurve.from_times("empty", {})


def test_from_times_rejects_missing_baseline():
    with pytest.raises(ValueError, match="baseline p=4"):
        SpeedupCurve.from_times("x", {1: 100, 2: 60}, baseline=4)


def test_from_times_zero_time_yields_zero_speedup():
    curve = SpeedupCurve.from_times("x", {1: 100, 2: 0})
    assert curve.at(2).speedup == 0.0
    assert curve.at(2).efficiency == 0.0


def test_from_times_normalizes_to_baseline_count():
    # baseline p=2: speedup(2) == 2, and half the time at p=4 doubles it
    curve = SpeedupCurve.from_times("x", {2: 100, 4: 50})
    assert curve.at(2).speedup == pytest.approx(2.0)
    assert curve.at(4).speedup == pytest.approx(4.0)
    assert curve.at(4).efficiency == pytest.approx(1.0)


def test_curve_at_unmeasured_count_raises():
    curve = SpeedupCurve.from_times("x", {1: 100})
    with pytest.raises(KeyError, match="p=7"):
        curve.at(7)


def test_efficiency_guards_nonpositive_processors():
    from repro.analysis.speedup import SpeedupPoint

    assert SpeedupPoint(processors=0, sim_time_ns=1, speedup=1.0) \
        .efficiency == 0.0


def test_curve_roundtrips_to_dict():
    curve = SpeedupCurve.from_times("label", {1: 200, 2: 100})
    d = curve.to_dict()
    assert d["label"] == "label"
    assert [p["processors"] for p in d["points"]] == [1, 2]
    assert all("efficiency" in p for p in d["points"])


def test_measure_speedup_rejects_empty_counts():
    with pytest.raises(ValueError, match="processor count"):
        measure_speedup(lambda p: None, lambda p: None,
                        processor_counts=())


def test_curve_format_is_printable():
    text = SpeedupCurve.from_times("fmt", {1: 100, 2: 50}).format()
    assert "fmt" in text and "speedup" in text


# -- MigrationCostModel -------------------------------------------------------


def test_g_round_robin_edges():
    assert g_round_robin(2) == pytest.approx(2.0)
    assert g_round_robin(100) == pytest.approx(100 / 99)
    with pytest.raises(ValueError):
        g_round_robin(1)


def test_cost_model_rejects_degenerate_span():
    flat = MigrationCostModel(
        t_local=500.0, t_remote=500.0, t_block=100.0, fixed_overhead=1e5
    )
    with pytest.raises(ValueError, match="t_remote > t_local"):
        _ = flat.density_coefficient
    with pytest.raises(ValueError, match="t_remote > t_local"):
        _ = flat.numerator_coefficient
    inverted = MigrationCostModel(
        t_local=900.0, t_remote=500.0, t_block=100.0, fixed_overhead=1e5
    )
    with pytest.raises(ValueError):
        inverted.s_min(1.0, 1.0)


def test_s_min_rejects_nonpositive_args():
    model = MigrationCostModel.paper_constants()
    for rho, g in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match="positive"):
            model.s_min(rho, g)


def test_s_min_never_region_is_none():
    model = MigrationCostModel.paper_constants()
    # below g * density_coefficient no page size can pay
    assert model.s_min(model.min_density(1.0) * 0.99, 1.0) is None
    assert model.s_min(model.min_density(1.0) * 1.5, 1.0) is not None


def test_migration_pays_agrees_with_s_min():
    model = MigrationCostModel.paper_constants()
    s = model.s_min(1.0, 1.0)
    assert not model.migration_pays(s * 0.9, 1.0, 1.0)
    assert model.migration_pays(s * 1.1, 1.0, 1.0)


# -- counter vocabulary -------------------------------------------------------


class _Row:
    def __init__(self, **kw):
        self.faults = 0
        self.read_faults = 0
        self.write_faults = 0
        self.replications = 0
        self.migrations = 0
        self.invalidations = 0
        self.remote_mappings = 0
        self.was_frozen = False
        for k, v in kw.items():
            setattr(self, k, v)


class _Report:
    def __init__(self, rows=(), local_words=0, remote_words=0):
        self.rows = list(rows)
        self.local_words = local_words
        self.remote_words = remote_words
        self.queue_delay_ms = 0.0
        self.transfers = 0
        self.shootdowns = 0
        self.ipis = 0


class _Result:
    def __init__(self, report, sim_time_ns=0):
        self.report = report
        self.sim_time_ns = sim_time_ns


def test_run_counters_on_empty_report_has_no_division_by_zero():
    counters = run_counters(_Result(_Report()))
    assert counters["faults"] == 0
    assert counters["remote_fraction"] == 0.0
    for field in COUNTER_FIELDS:
        assert counters[field] == 0


def test_run_counters_sums_rows():
    report = _Report(
        rows=[
            _Row(faults=3, read_faults=2, write_faults=1, was_frozen=True),
            _Row(faults=1, read_faults=1, migrations=2),
        ],
        local_words=30,
        remote_words=10,
    )
    counters = run_counters(_Result(report, sim_time_ns=500))
    assert counters["faults"] == 4
    assert counters["read_faults"] == 3
    assert counters["migrations"] == 2
    assert counters["freezes"] == 1
    assert counters["remote_fraction"] == pytest.approx(0.25)
    assert counters["sim_time_ns"] == 500


def test_aggregate_counters_empty_sweep():
    total = aggregate_counters([])
    assert total["points"] == 0
    assert total["remote_fraction"] == 0.0
    assert total["faults"] == 0


def test_aggregate_counters_skips_failed_points_and_sums():
    a = {"faults": 2, "local_words": 10, "remote_words": 10,
         "sim_time_ns": 100}
    b = {"faults": 5, "local_words": 20, "remote_words": 0,
         "sim_time_ns": 50}
    total = aggregate_counters([a, None, b])
    assert total["points"] == 2
    assert total["faults"] == 7
    assert total["sim_time_ns"] == 150
    # recomputed from summed words, not averaged
    assert total["remote_fraction"] == pytest.approx(10 / 40)


# -- cost-model edge cases the profiler leans on ------------------------------


def _machine_params() -> dict:
    p = make_kernel(n_processors=2).params
    params = {name: getattr(p, name) for name in PARAM_FIELDS}
    params["words_per_page"] = p.words_per_page
    return params


def _synthetic_source(access, events=None, n_processors=2):
    return ProfileSource(
        events=events or [],
        sim_time_ns=10_000_000,
        n_processors=n_processors,
        params=_machine_params(),
        access=access,
        complete=True,
    )


def _row(cpage, proc, **words):
    row = {
        "cpage": cpage, "proc": proc,
        "local_read": 0, "local_write": 0,
        "remote_read": 0, "remote_write": 0,
        "frozen_read": 0, "frozen_write": 0,
        "queue_ns": 0,
    }
    row.update(words)
    return row


def test_cost_model_zero_length_reference_string():
    model = MigrationCostModel.paper_constants()
    # s = 0: nothing to move -- the migration still pays its fixed
    # overhead, and zero references cost nothing either way
    assert model.migrate_cost(0) == model.fixed_overhead
    assert model.remote_cost(0, rho=1.0) == 0.0
    assert model.local_cost(0, rho=1.0) == 0.0
    assert not model.migration_pays(0, rho=1.0, g=1.0)


def test_verdict_zero_length_reference_string():
    source = _synthetic_source(access=[])
    verdict = page_verdict(source, 7)
    assert verdict["recommended"] == "indifferent"
    assert verdict["cost_if_cache_ns"] == 0
    assert verdict["cost_if_remote_ns"] == 0
    assert verdict["note"] == "page was never referenced"


def test_verdict_pure_writer_page_prices_write_latency():
    params = _machine_params()
    events = [{
        "time": 0, "kind": "fault", "cpage": 5, "proc": 1,
        "detail": {"action": "migrate", "write": True,
                   "dur": 300_000, "wait": 0, "fixed": 270_000},
        "eid": 0,
    }]
    access = [
        _row(5, 0, local_write=100),     # the home: writes only
        _row(5, 1, remote_write=40),     # a pure-writer sharer
    ]
    source = _synthetic_source(access, events=events)
    verdict = page_verdict(source, 5)
    # the remote alternative prices the sharer's words at the *write*
    # latency -- half the read latency on this machine
    expected_remote = int(round(
        params["fault_fixed_remote"] + 40 * params["t_remote_write"]
    ))
    assert verdict["cost_if_remote_ns"] == expected_remote
    assert verdict["misses"] == 1
    assert verdict["policy_chose"] == "cache"


def test_verdict_single_processor_page_is_indifferent():
    source = _synthetic_source(access=[_row(3, 0, local_write=50)])
    verdict = page_verdict(source, 3)
    assert verdict["recommended"] == "indifferent"
    assert verdict["note"].startswith("single-processor")


def test_degenerate_t1_equals_t2_window_still_reconciles():
    # t1 == t2: a page becomes defrost-eligible the instant its freeze
    # window closes; the policy and the profiler must both cope
    kernel = make_kernel(
        n_processors=4,
        trace=True,
        defrost_period=30e6,
        t1_freeze_window=30e6,
        t2_defrost_period=30e6,
    )
    probe = AccessProbe.install(kernel.coherent)
    result = run_program(kernel, PhaseChangeSharing(n_threads=4))
    source = ProfileSource.from_run(kernel, result, probe,
                                    workload="degenerate")
    assert source.params["t1_freeze_window"] == \
        source.params["t2_defrost_period"]
    a = compute_attribution(source)
    assert a.reconciled
    for cpage in [c for c, _ in a.top_pages(3)]:
        assert page_verdict(source, cpage)["recommended"] in (
            "cache", "remote_map", "indifferent"
        )
