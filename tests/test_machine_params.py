"""Unit tests for machine parameters and their paper-derived defaults."""

import dataclasses

import pytest

from repro.machine import BUTTERFLY_PLUS, MachineParams, butterfly_plus


def test_defaults_match_paper_constants():
    p = BUTTERFLY_PLUS
    assert p.n_processors == 16
    assert p.page_bytes == 4096
    assert p.word_bytes == 4
    assert p.words_per_page == 1024
    assert p.t_local == 320.0
    assert p.t_remote_read == 5000.0
    assert p.t1_freeze_window == 10e6  # 10 ms
    assert p.t2_defrost_period == 1e9  # 1 s


def test_page_copy_time_is_paper_value():
    # paper: 1.11 ms for a 4 KB page
    assert BUTTERFLY_PLUS.page_copy_time == pytest.approx(1.11e6, rel=0.01)


def test_remote_read_overhead():
    # extra latency of a remote read over a local reference
    p = BUTTERFLY_PLUS
    assert p.t_remote_read - p.t_local == pytest.approx(4680.0)


def test_four_mb_per_node():
    p = BUTTERFLY_PLUS
    assert p.frames_per_module * p.page_bytes == 4 * 1024 * 1024


def test_butterfly_plus_override():
    p = butterfly_plus(4, page_bytes=8192)
    assert p.n_processors == 4
    assert p.words_per_page == 2048


def test_scaled_returns_a_copy():
    p = BUTTERFLY_PLUS.scaled(t_local=100.0)
    assert p.t_local == 100.0
    assert BUTTERFLY_PLUS.t_local == 320.0  # original untouched


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_processors": 0},
        {"page_bytes": 4095},
        {"page_bytes": 6, "word_bytes": 4},
        {"frames_per_module": 0},
        {"block_transfer_bus_fraction": 0.0},
        {"block_transfer_bus_fraction": 1.5},
        {"topology": "torus"},
        {"t_local": -1.0},
        {"t_remote_read": 100.0},  # faster than local
    ],
)
def test_construction_rejects_nonsense(overrides):
    with pytest.raises(ValueError):
        MachineParams(**overrides)


def test_params_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        BUTTERFLY_PLUS.t_local = 1.0


def test_n_modules_matches_processors():
    assert butterfly_plus(7).n_modules == 7
