"""Tests for the combined benchmark snapshot and the bench-embedded
profiler summary (the committed ``BENCH_smoke.json`` contract)."""

import json

import pytest

from repro.bench import (
    SNAPSHOT_SCHEMA,
    load_snapshot,
    run_bench,
    snapshot_doc,
    write_snapshot,
)
from repro.bench.targets import execute_point


@pytest.fixture(scope="module")
def sec42_doc():
    docs, _runner = run_bench("smoke", filter_pattern="sec42_anecdote")
    return docs["sec42_anecdote"]


def test_snapshot_strips_wall_clock_fields(sec42_doc):
    snap = snapshot_doc({"sec42_anecdote": sec42_doc}, scale="smoke")
    assert snap["schema"] == SNAPSHOT_SCHEMA
    doc = snap["targets"]["sec42_anecdote"]
    assert "wall_clock_s" not in doc
    assert "jobs" not in doc
    assert all("wall_s" not in p for p in doc["points"])
    # the original document is untouched
    assert "wall_clock_s" in sec42_doc


def test_snapshot_write_and_load_round_trip(sec42_doc, tmp_path):
    path = write_snapshot({"sec42_anecdote": sec42_doc}, "smoke",
                          tmp_path / "snap.json")
    loaded = load_snapshot(path)
    assert loaded == snapshot_doc({"sec42_anecdote": sec42_doc},
                                  scale="smoke")


def test_snapshot_bytes_are_stable(sec42_doc, tmp_path):
    a = write_snapshot({"t": sec42_doc}, "smoke", tmp_path / "a.json")
    b = write_snapshot({"t": sec42_doc}, "smoke", tmp_path / "b.json")
    assert a.read_text() == b.read_text()


def test_load_snapshot_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValueError, match="snapshot"):
        load_snapshot(path)


def test_sec42_derived_carries_profiler_conclusion(sec42_doc):
    configs = sec42_doc["derived"]["configs"]
    anecdote = configs["colocated+defrost"]
    # the section 4.2 acceptance: the falsely-shared page ranks #1 and
    # the attribution tiles P * sim_time exactly
    assert anecdote["top_page"].startswith("misc")
    assert anecdote["attribution_reconciled"] is True
    for point in sec42_doc["points"]:
        prof = point["metrics"]["profile"]
        assert prof["reconciled"]
        assert sum(prof["per_category"].values()) == prof["budget_ns"]


def test_profile_gated_off_for_non_platinum_points():
    smp = execute_point(
        {"kind": "run", "system": "smp", "machine": 2, "profile": 3,
         "args": {"n": 8, "n_threads": 2, "verify_result": False}},
        seed=0,
    )
    assert "profile" not in smp
    competitive = execute_point(
        {"kind": "run", "workload": "roundrobin", "machine": 2,
         "competitive": True, "profile": 3,
         "args": {"n_threads": 2, "operations": 4}},
        seed=0,
    )
    assert "profile" not in competitive
