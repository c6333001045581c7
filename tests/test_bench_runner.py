"""Smoke tests for the bench orchestration (repro.bench.runner).

One serial smoke sweep and one ``--jobs 2`` smoke sweep run every
registered target end-to-end; every emitted document is validated
against the ``repro-bench/1`` schema, and the two sweeps must agree on
everything except wall-clock fields.
"""

import json
from pathlib import Path

import pytest

from repro import doc as _doc
from repro.bench import (
    TARGETS,
    load_bench,
    load_snapshot,
    run_bench,
    select_targets,
    snapshot_doc,
    strip_wall_clock,
    summarize,
    validate_bench,
    write_results,
)
from repro.bench.runner import render_text
from repro.bench.schema import SCALES


@pytest.fixture(scope="module")
def smoke_docs():
    docs, runner = run_bench(scale="smoke", jobs=1)
    return docs


@pytest.fixture(scope="module")
def smoke_docs_parallel():
    docs, runner = run_bench(scale="smoke", jobs=2)
    return docs


def test_every_target_is_swept(smoke_docs):
    assert set(smoke_docs) == set(TARGETS)
    assert len(TARGETS) >= 11


@pytest.mark.parametrize("target", list(TARGETS))
def test_target_smoke_doc_is_valid(smoke_docs, target):
    doc = smoke_docs[target]
    assert validate_bench(doc) == [], validate_bench(doc)
    assert doc["target"] == target
    assert doc["scale"] == "smoke"
    assert doc["points"], f"{target} swept no points"
    for point in doc["points"]:
        assert point["ok"], (
            f"{target}::{point['name']} failed:\n{point['error']}"
        )


@pytest.mark.parametrize("target", list(TARGETS))
def test_target_expands_at_every_scale(target):
    # point lists must build (without running) at every scale
    for scale in SCALES:
        config, points = TARGETS[target].points(scale)
        assert isinstance(config, dict)
        assert points, (target, scale)
        names = [name for name, _spec in points]
        assert len(names) == len(set(names)), f"duplicate point names "\
            f"in {target}@{scale}"
        for _name, spec in points:
            assert "kind" in spec
            json.dumps(spec)  # specs must be JSON-able (and picklable)


def test_parallel_smoke_matches_serial(smoke_docs, smoke_docs_parallel):
    for target in TARGETS:
        serial = strip_wall_clock(smoke_docs[target])
        parallel = strip_wall_clock(smoke_docs_parallel[target])
        assert serial == parallel, (
            f"{target}: serial and jobs=2 sweeps disagree beyond "
            "wall-clock fields"
        )


def test_the_smoke_sweep_reproduces_the_committed_snapshot(smoke_docs):
    """The one gate on simulated drift.  ``BENCH_smoke.json`` is this
    sweep with its wall-clock fields stripped, so the same tree rebuilds
    it byte for byte.  A change that moves any simulated figure fails
    here, naming the targets, until ``python -m repro bench --update``
    puts the moved figures in the same diff.  Wall-clock speed is not
    judged here: ``perf/run.py --compare`` owns that."""
    committed_path = Path(__file__).resolve().parents[1] / "BENCH_smoke.json"
    committed = load_snapshot(committed_path)["targets"]
    fresh = snapshot_doc(smoke_docs, "smoke")
    drifted = sorted(name for name in set(committed) | set(fresh["targets"])
                     if committed.get(name) != fresh["targets"].get(name))
    assert not drifted, (
        f"simulated drift in {drifted}: regenerate with "
        "'python -m repro bench --update' and commit BENCH_smoke.json")
    assert _doc.pretty(fresh) == committed_path.read_text()


def test_counters_aggregate_over_points(smoke_docs):
    doc = smoke_docs["fig1_gauss"]
    total_faults = sum(
        p["metrics"]["faults"] for p in doc["points"]
    )
    assert doc["counters"]["faults"] == total_faults
    assert doc["counters"]["points"] == len(doc["points"])


def test_telemetry_block_aggregates_point_summaries(smoke_docs):
    doc = smoke_docs["fig1_gauss"]
    telemetry = doc["telemetry"]
    run_points = [
        p for p in doc["points"]
        if isinstance(p["metrics"].get("telemetry"), dict)
    ]
    assert telemetry["points_with_telemetry"] == len(run_points) > 0
    # the doc-level counters are the sum of the per-point summaries...
    assert telemetry["counters"]["faults_total"] == sum(
        p["metrics"]["telemetry"]["counters"]["faults_total"]
        for p in run_points
    )
    # ...and the registry agrees with the post-mortem counter aggregate
    assert telemetry["counters"]["faults_total"] == \
        doc["counters"]["faults"]
    assert telemetry["counters"]["shootdowns_total"] == \
        doc["counters"]["shootdowns"]
    hist = telemetry["histograms"]["fault_handler_ns"]
    assert hist["count"] == doc["counters"]["faults"]


def test_telemetry_block_validates_and_spec_can_opt_out(smoke_docs):
    from repro.bench.targets import execute_point

    doc = dict(smoke_docs["fig1_gauss"])
    doc["telemetry"] = "nope"
    assert any("doc.telemetry" in p for p in validate_bench(doc))
    doc["telemetry"] = {"counters": {}}
    assert any("points_with_telemetry" in p
               for p in validate_bench(doc))
    # analytic targets carry no telemetry and stay valid without it
    assert "telemetry" not in smoke_docs["tab1_costmodel"]
    # a run spec can opt out explicitly
    metrics = execute_point(
        {"kind": "run", "workload": "gauss", "machine": 2,
         "telemetry": False,
         "args": {"n": 8, "n_threads": 2, "verify_result": False}},
        seed=0,
    )
    assert "telemetry" not in metrics


def test_derived_speedup_curve_shape(smoke_docs):
    curve = smoke_docs["fig1_gauss"]["derived"]["curve"]
    assert [pt["processors"] for pt in curve["points"]] == \
        smoke_docs["fig1_gauss"]["config"]["counts"]
    # normalization: speedup at the baseline equals the baseline count
    base = curve["points"][0]
    assert base["speedup"] == pytest.approx(base["processors"])


def test_write_results_and_load_roundtrip(smoke_docs, tmp_path):
    written = write_results(
        {"fig1_gauss": smoke_docs["fig1_gauss"]}, tmp_path
    )
    json_paths = [p for p in written if p.suffix == ".json"]
    assert json_paths == [tmp_path / "BENCH_fig1_gauss.json"]
    doc = load_bench(json_paths[0])
    assert strip_wall_clock(doc) == strip_wall_clock(
        smoke_docs["fig1_gauss"]
    )
    text = (tmp_path / "fig1_gauss.txt").read_text()
    assert "fig1_gauss" in text


def test_render_text_mentions_failures():
    doc = {
        "target": "t", "title": "T", "scale": "smoke",
        "wall_clock_s": 0.0, "jobs": 1, "derived": {},
        "points": [{
            "name": "p", "ok": False, "error": "RuntimeError: nope",
            "wall_s": 0.0, "config": {}, "metrics": None, "seed": 0,
        }],
    }
    assert "FAILED" in render_text(doc)


def test_summarize_counts_failures(smoke_docs):
    total, failed, problems = summarize(smoke_docs)
    assert failed == 0
    assert problems == []
    assert total == sum(len(d["points"]) for d in smoke_docs.values())


def test_select_targets_filtering():
    assert select_targets(None) == list(TARGETS)
    assert select_targets("fig1") == ["fig1_gauss"]
    assert select_targets("fig*") == [
        "fig1_gauss", "fig4_transitions", "fig5_mergesort", "fig6_neural"
    ]
    assert select_targets("no-such-target") == []


def test_run_bench_rejects_unmatched_filter():
    with pytest.raises(ValueError, match="matches no target"):
        run_bench(scale="smoke", filter_pattern="no-such-target")


def test_cli_bench_smoke(tmp_path, capsys):
    from repro.cli import main

    rc = main([
        "bench", "--smoke", "--filter", "tab1_costmodel",
        "--out", str(tmp_path), "-q",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 target(s)" in out
    doc = load_bench(tmp_path / "BENCH_tab1_costmodel.json")
    assert doc["derived"]["matches_published"] is True


def test_cli_bench_bad_filter(tmp_path, capsys):
    from repro.cli import main

    rc = main(["bench", "--smoke", "--filter", "zzz",
               "--out", str(tmp_path)])
    assert rc == 2


# -- run-ledger and wall-profile observability --------------------------------


def test_run_bench_rejects_unknown_scale():
    """The satellite contract: unknown scale is a ValueError (one-line
    exit-2 at the CLI), never a raw KeyError from the timeout table."""
    with pytest.raises(ValueError, match="unknown scale 'warp'"):
        run_bench(scale="warp")


def test_validate_scale_names_the_choices():
    from repro.bench.runner import validate_scale

    assert validate_scale("smoke") == "smoke"
    with pytest.raises(ValueError, match="smoke, quick, full"):
        validate_scale("huge")


def _ledgered_bench(tmp_path, **kwargs):
    from repro.obs import RunLedger, read_ledger, set_ledger

    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path, verb="bench")
    previous = set_ledger(ledger)
    try:
        docs, runner = run_bench(
            scale="smoke", filter_pattern="fig1_gauss", **kwargs)
    finally:
        set_ledger(previous)
        ledger.close()
    return docs, read_ledger(path)


def test_ledger_points_reconcile_with_the_bench_doc(tmp_path):
    """Acceptance: per-point spans match the doc's point count and
    wall-clock totals."""
    docs, records = _ledgered_bench(tmp_path)
    doc = docs["fig1_gauss"]
    points = [r for r in records
              if r.get("record") == "span"
              and r.get("name") == "bench.point"]
    assert len(points) == len(doc["points"])
    by_task = {p["attrs"]["task"]: p for p in points}
    for point in doc["points"]:
        span = by_task[f"fig1_gauss::{point['name']}"]
        assert span["wall"]["dur_s"] == point["wall_s"]
        assert span["attrs"]["ok"] is point["ok"]
        assert span["attrs"]["seed"] == point["seed"]
    assert round(sum(p["wall"]["dur_s"] for p in points), 4) == \
        pytest.approx(doc["wall_clock_s"], abs=1e-2)
    sweep = next(r for r in records if r.get("name") == "bench.sweep")
    assert all(p["parent"] == sweep["sid"] for p in points)
    summary = next(r for r in records
                   if r.get("name") == "pool.summary")
    assert summary["attrs"]["tasks"] == len(doc["points"])


def test_parallel_ledger_spans_are_rerun_stable(tmp_path):
    """Parallel completion order must not leak into sid assignment."""
    from repro.obs import strip_wall_ledger

    _docs, serial = _ledgered_bench(tmp_path / "a", jobs=1)
    _docs, parallel = _ledgered_bench(tmp_path / "b", jobs=2)
    assert strip_wall_ledger(serial) == strip_wall_ledger(parallel)


def test_parallel_points_carry_worker_pids(tmp_path):
    import os

    _docs, records = _ledgered_bench(tmp_path, jobs=2)
    points = [r for r in records if r.get("name") == "bench.point"]
    pids = {p["wall"].get("pid") for p in points}
    # context propagated across the process boundary: the measuring pid
    # is a worker's, not the parent's (unless the pool degraded)
    assert pids
    if os.getpid() in pids:
        sweep = next(r for r in records
                     if r.get("name") == "bench.sweep")
        assert sweep is not None  # degraded sandbox: parent ran them


def test_bench_without_ledger_emits_nothing(tmp_path):
    from repro.obs import get_ledger

    assert get_ledger() is None
    docs, _runner = run_bench(scale="smoke",
                              filter_pattern="tab1_costmodel")
    assert get_ledger() is None
    assert validate_bench(docs["tab1_costmodel"]) == []


def test_pool_health_is_attached_and_counts_tasks():
    docs, runner = run_bench(scale="smoke",
                             filter_pattern="fig1_gauss", jobs=2)
    summary = runner.health.summary()
    assert summary["tasks"] == len(docs["fig1_gauss"]["points"])
    assert summary["failures"] == 0


# -- reproduction checks --------------------------------------------------------

#: a two-point target whose one check is false, claimed at ``full`` only
_FAKE_TARGET = '''
import sys
from repro.bench.targets import TARGETS, BenchTarget, Check
from repro.cli import main

TARGETS["fake"] = BenchTarget(
    name="fake", title="two echo points",
    points=lambda scale: ({}, [
        (name, {"kind": "echo", "value": value})
        for name, value in (("a", 1), ("b", 2))]),
    derive=lambda ok: {},
    checks=(Check(
        "a_above_b", "a above b", ("full",),
        lambda d, ok: (ok["a"]["value"] > ok["b"]["value"],
                       f"a={ok['a']['value']} b={ok['b']['value']}")),),
)
sys.exit(main(["bench", "--scale", sys.argv[1], "--filter", "fake",
               "--out", sys.argv[2], "-q"]))
'''


@pytest.mark.parametrize("scale,code", [("smoke", 0), ("full", 1)])
def test_a_false_check_fails_the_run_only_where_it_is_claimed(
        scale, code, tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _FAKE_TARGET, scale, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stdout + proc.stderr
    named = [line for line in proc.stdout.splitlines()
             if line.startswith("repro bench:")]
    report = (tmp_path / "fake.txt").read_text()
    assert "paper:    a above b" in report
    assert "measured: a=1 b=2" in report
    if code:
        assert len(named) == 1
        assert "fake: check a_above_b is false at scale full" in named[0]
        assert "[FALSE] a_above_b" in report
    else:
        assert named == []
        assert "[false] a_above_b  (claimed at full)" in report


def test_an_unmeasured_check_does_not_hold(smoke_docs):
    from repro.bench.runner import evaluate_checks

    rows = {check.name: (holds, measured, claimed) for
            check, holds, measured, claimed
            in evaluate_checks(smoke_docs["fig1_gauss"])}
    # the smoke sweep stops at p=2, and claims nothing about p=16
    holds, measured, claimed = rows["speedup_at_16"]
    assert (holds, claimed) == (False, False)
    assert measured.startswith("not measured")


def test_every_check_claimed_at_smoke_holds(smoke_docs):
    from repro.bench import false_checks

    assert false_checks(smoke_docs) == []
    # ... while the section 5.1 ordering is expectedly false down here
    assert smoke_docs["sec51_comparison"]["derived"]["ordering_ok"] is False


# -- the point lists ------------------------------------------------------------


def test_smoke_and_quick_point_lists_match_the_pinned_snapshot():
    """``tests/snapshots/bench_points.json`` was taken at PR 23: CI,
    ``BENCH_smoke.json`` and ``perf/`` read these lists, so a refactor
    of ``targets.py`` must not move one spec."""
    from pathlib import Path

    from repro.doc import compact

    pinned = json.loads(
        (Path(__file__).parent / "snapshots" / "bench_points.json")
        .read_text())
    for scale, targets in pinned.items():
        assert set(targets) == set(TARGETS)
        for name, points in targets.items():
            assert compact(list(TARGETS[name].points(scale))) == \
                compact(points), f"{name}@{scale} moved"


def test_full_scale_is_the_papers_problem_sizes():
    """Expanded, never run: Gauss 800x800, 262,144 keys, counts
    through 12 and 16."""
    full = {name: TARGETS[name].points("full")
            for name in ("fig1_gauss", "sec51_comparison",
                         "fig5_mergesort")}
    for name, n in (("fig1_gauss", 800), ("sec51_comparison", 800),
                    ("fig5_mergesort", 262144)):
        config, points = full[name]
        assert config["n"] == n and config["machine"] == 16
        assert {spec["args"]["n"] for _name, spec in points} == {n}
    for name in ("fig1_gauss", "fig5_mergesort"):
        assert full[name][0]["counts"] == [1, 2, 4, 8, 12, 16]
    threads = {spec["args"]["n_threads"]
               for _name, spec in full["sec51_comparison"][1]}
    assert threads == {1, 16}
    # what only the paper-scale run carries: section 4.1's RPC option,
    # the remote-metadata and 15-target rows of section 4
    rpc = [spec for name, spec in TARGETS["ablation_rpc"].points("full")[1]
           if name.startswith("rpc:")]
    assert rpc and {s["workload"] for s in rpc} == {"roundrobin_rpc"}
    (_name, micro), = TARGETS["sec4_micro"].points("full")[1]
    assert micro == {"kind": "micro", "targets": 15,
                     "remote_metadata": True}


def test_full_scale_micro_rows_hold_the_papers_ranges():
    from repro.bench.targets import execute_point

    target = TARGETS["sec4_micro"]
    (name, spec), = target.points("full")[1]
    ok = {name: execute_point(spec, seed=0)}
    assert ok[name]["read_miss_clean_remote_ms"] == \
        pytest.approx(1.38, abs=1e-3)
    rows = {check.name: check.test({}, ok) for check in target.checks}
    assert all(holds for holds, _measured in rows.values()), rows
    # the remote-metadata twin is held to the same published range
    assert rows["read_miss_modified"] == (True, "1.460 1.500 ms")
    # out of range by more than the printed digits allow: false
    ok[name]["page_copy_ms"] *= 1.01
    page_copy = target.checks[0]
    assert page_copy.paper == "block transfer, one 4KB page: 1.11 ms"
    assert page_copy.test({}, ok) == (False, "1.121 ms")
