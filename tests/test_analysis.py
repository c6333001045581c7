"""Tests for the analytic cost model (Table 1) and measurement helpers."""

import pytest

from repro import make_kernel
from repro.analysis import (
    MigrationCostModel,
    SpeedupCurve,
    SpeedupPoint,
    TABLE1_GS,
    TABLE1_PUBLISHED,
    TABLE1_RHOS,
    ascii_plot,
    crossover_validation,
    format_table,
    g_round_robin,
    measure_speedup,
)
from repro.machine import BUTTERFLY_PLUS
from repro.workloads import PrivateWork


# -- g(p) -------------------------------------------------------------------------


def test_g_round_robin_worst_case_is_two_processors():
    assert g_round_robin(2) == 2.0
    assert g_round_robin(3) == pytest.approx(1.5)
    assert g_round_robin(16) == pytest.approx(16 / 15)


def test_g_round_robin_approaches_one():
    assert g_round_robin(1000) == pytest.approx(1.0, abs=0.01)


def test_g_round_robin_requires_two():
    with pytest.raises(ValueError):
        g_round_robin(1)


# -- the cost model ------------------------------------------------------------------


@pytest.fixture
def paper_model():
    return MigrationCostModel.paper_constants()


def test_paper_coefficients(paper_model):
    # paper: numerator ~107 words per unit g, density coefficient ~0.24
    assert paper_model.numerator_coefficient == pytest.approx(107, rel=0.01)
    assert paper_model.density_coefficient == pytest.approx(0.24, rel=0.01)


def test_table1_matches_published_grid(paper_model):
    generated = paper_model.table1()
    for rho in TABLE1_RHOS:
        for got, published in zip(generated[rho], TABLE1_PUBLISHED[rho]):
            if published is None:
                assert got is None, f"rho={rho}: expected 'never'"
            else:
                assert got is not None
                # within 3%: the published table itself carries rounding
                # (and one internally inconsistent cell, rho=0.48 g=1)
                assert got == pytest.approx(published, rel=0.03)


def test_never_region_matches_density_bound(paper_model):
    for g in TABLE1_GS:
        bound = paper_model.min_density(g)
        assert paper_model.s_min(bound * 0.99, g) is None
        assert paper_model.s_min(bound * 1.5, g) is not None


def test_s_min_consistent_with_inequality(paper_model):
    """At s slightly above s_min migration pays; slightly below it
    doesn't -- the two forms of the inequality must agree."""
    for rho in (0.6, 1.0, 2.0):
        for g in TABLE1_GS:
            s_min = paper_model.s_min(rho, g)
            if s_min is None:
                continue
            assert paper_model.migration_pays(s_min * 1.01, rho, g)
            assert not paper_model.migration_pays(s_min * 0.99, rho, g)


def test_overhead_reduction_shrinks_s_min_proportionally(paper_model):
    """Paper observation: 'a decrease in overhead results in a
    proportional decrease in the minimum page size'."""
    halved = MigrationCostModel(
        t_local=paper_model.t_local,
        t_remote=paper_model.t_remote,
        t_block=paper_model.t_block,
        fixed_overhead=paper_model.fixed_overhead / 2,
    )
    assert halved.s_min(1.0, 1.0) == pytest.approx(
        paper_model.s_min(1.0, 1.0) / 2
    )


def test_block_transfer_ratio_bounds_density(paper_model):
    """Paper observation: T_b/(T_r - T_l) is the single most important
    architectural ratio -- it bounds the usable density for ANY size."""
    slow_xfer = MigrationCostModel(
        t_local=320, t_remote=5000, t_block=4680 * 3,
        fixed_overhead=1.0,
    )
    # with T_b three times the span, even rho=2 never pays for g >= 1
    assert slow_xfer.s_min(2.0, 1.0) is None


def test_from_params_uses_machine_constants():
    model = MigrationCostModel.from_params(BUTTERFLY_PLUS)
    assert model.t_local == BUTTERFLY_PLUS.t_local
    assert model.t_block == BUTTERFLY_PLUS.t_block_word
    # its Table 1 has the same shape (same 'never' region), except at
    # grid points sitting on the never-boundary itself, where the small
    # difference between 1084/4680 and the paper's ~0.2403 coefficient
    # legitimately flips the cell
    table = model.table1()
    for rho in TABLE1_RHOS:
        for g, got, published in zip(
            TABLE1_GS, table[rho], TABLE1_PUBLISHED[rho]
        ):
            if abs(rho - model.min_density(g)) / rho < 0.05:
                continue  # boundary cell
            assert (got is None) == (published is None)


def test_format_table1_renders(paper_model):
    text = paper_model.format_table1()
    assert "never" in text
    assert "1070" in text or "1069" in text


def test_crossover_validation_ordering(paper_model):
    costs = crossover_validation(paper_model, rho=1.0, g=1.0, s=1024)
    # at a full page with rho=1, moving beats remote access
    assert costs["migrate_then_local"] < costs["remote"]
    assert costs["local_only"] < costs["migrate_then_local"]


def test_bad_inputs_rejected(paper_model):
    with pytest.raises(ValueError):
        paper_model.s_min(0, 1)
    with pytest.raises(ValueError):
        paper_model.s_min(1, 0)


# -- measurement helpers ---------------------------------------------------------------


def test_measure_speedup_basic():
    made = []

    def factory(p):
        made.append(p)
        return make_kernel(n_processors=4)

    # fixed total work: 16 sweeps' worth, divided among the threads
    curve = measure_speedup(
        lambda p: PrivateWork(n_threads=p, sweeps=16 // p), factory,
        processor_counts=(1, 2, 4), label="private",
    )
    assert made == curve.processors == [1, 2, 4]
    assert curve.points[0].speedup == pytest.approx(1.0)
    # perfectly partitioned work scales nearly linearly
    assert curve.at(4).speedup > 3.0
    assert "private" in curve.format()


def test_measure_speedup_empty_counts_rejected():
    with pytest.raises(ValueError):
        measure_speedup(lambda p: PrivateWork(), make_kernel,
                        processor_counts=())


def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert len(lines) == 5  # title, header, rule, two rows


def test_ascii_plot_renders():
    text = ascii_plot(
        [1, 2, 4], {"x": [1.0, 2.0, 3.5], "y": [1.0, 1.5, 2.0]},
        title="plot",
    )
    assert "plot" in text
    assert "*" in text and "o" in text


def test_speedup_curve_at_unknown_count_raises():
    curve = SpeedupCurve("x", [SpeedupPoint(1, 100, 1.0)])
    with pytest.raises(KeyError):
        curve.at(7)


def test_speedup_point_derived_fields():
    pt = SpeedupPoint(processors=4, sim_time_ns=2_000_000, speedup=3.0)
    assert pt.sim_time_ms == pytest.approx(2.0)
    assert pt.efficiency == pytest.approx(0.75)


def test_ascii_plot_degenerate_inputs():
    assert ascii_plot([], {}) == "(no data)"
    # a single point with equal min/max axes must not divide by zero
    text = ascii_plot([3], {"s": [2.0]}, title="t")
    assert "t" in text
