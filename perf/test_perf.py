"""Self-test of the benchmark, at ``--quick`` size (run: ``pytest perf/``).

Not part of tier-1 (``testpaths = ["tests"]``): it times nothing, it
checks that the benchmark says what ``BENCHMARK.json`` promises, that
its exact counts repeat, and that a failing point is not swallowed.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perf import compare, measure  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*argv: str) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick", *argv],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return done.returncode, last


def test_catalogue_is_within_the_contract():
    assert set(CATALOGUE) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert CATALOGUE["paths"] == ["perf"]
    assert 2 <= len(CATALOGUE["workloads"]) <= 8
    assert 1 <= len(CATALOGUE["end_to_end"]) <= 16
    assert 1 <= len(CATALOGUE["per_layer"]) <= 128
    names = [m["name"] for section in ("workloads", "end_to_end",
                                       "per_layer")
             for m in CATALOGUE[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in CATALOGUE["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in CATALOGUE["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in CATALOGUE["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher",
                                                             "lower")
    setup = next(m for m in CATALOGUE["end_to_end"]
                 if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"]
                                 for m in CATALOGUE["end_to_end"])


def check_result_line(line: dict, section: str) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CATALOGUE[section]}
    assert set(line["metrics"]) == set(want)
    for name, m in line["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == want[name]
        assert isinstance(m["value"], (int, float))


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    out = tmp_path / "A.json"
    code, line = run_cli("--workload", "live-sharing", "--seed", "7",
                         "--seconds", "0.3", "--trace", "0",
                         "--out", str(out))
    assert code == 0
    check_result_line(line, "end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())
    doc = json.loads(out.read_text())
    entry = doc["workloads"]["live-sharing"]
    assert entry["fail_ratio"] == 0 and entry["processes"] == 3
    assert entry["end_to_end"]["sim_ops_per_cpu_s"]["iterations"] >= 9
    assert {"nproc", "python", "numpy", "loadavg_start",
            "loadavg_end"} <= set(doc["host"])

    # the same document against itself: nothing regressed, exit 0
    assert compare.compare_files(str(out), str(out), CATALOGUE) == 0
    # half the speed, and a different simulation: regressed and flagged
    slow = copy.deepcopy(doc)
    speed = slow["workloads"]["live-sharing"]["end_to_end"][
        "sim_ops_per_cpu_s"]
    speed["value"] /= 2
    speed["samples"] = [s / 2 for s in speed["samples"]]
    speed["quartiles"] = [q / 2 for q in speed["quartiles"]]
    slow["workloads"]["live-sharing"]["sim_fingerprint"] = "changed"
    rows = compare.compare_docs(doc, slow, CATALOGUE)
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["sim_ops_per_cpu_s"]["verdict"] == "regressed"
    assert by_metric["peak_rss_mb"]["verdict"] == "ok"
    assert all(r["sim_changed"] for r in rows)
    slow_path = tmp_path / "B.json"
    slow_path.write_text(json.dumps(slow))
    assert compare.compare_files(str(out), str(slow_path), CATALOGUE) == 1


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    spans = tmp_path / "spans.json"
    code, line = run_cli("--workload", "replay-fast", "--trace", "1",
                         "--trace-out", str(spans))
    assert code == 0
    check_result_line(line, "per_layer")
    shares = [m["value"] for name, m in line["metrics"].items()
              if name.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.02)
    assert line["metrics"]["replay.fast.batched_ops"]["value"] > 0
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 0
    events = json.loads(spans.read_text())["traceEvents"]
    assert {"name", "ts", "dur", "args"} <= set(events[0])
    assert events[0]["args"]["parent"] == -1


def test_exact_counts_repeat_and_a_second_seed_passes_the_checks():
    exact = set(measure.layer_counts([], {}, 1))
    first = measure.measure_traced("live-sharing", 7, "quick")
    again = measure.measure_traced("live-sharing", 7, "quick")
    assert first["failed"] == again["failed"] == 0
    assert exact <= set(first["metrics"])
    assert ({k: first["metrics"][k] for k in exact}
            == {k: again["metrics"][k] for k in exact})
    assert first["metrics"]["core.fault.faults"] > 0
    runs = [measure.measure("replay-exact", 7, 0.0, "quick")
            for _ in range(2)]
    assert runs[0]["failed"] == runs[1]["failed"] == 0
    assert runs[0]["sim_fingerprint"] == runs[1]["sim_fingerprint"]
    assert runs[0]["sim_time_ms"] == runs[1]["sim_time_ms"] > 0


def test_an_injected_failing_point_fails_the_run():
    code, line = run_cli("--workload", "live-private", "--seconds", "0.1",
                         "--inject-failure")
    assert code != 0
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]


def test_it_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only the benchmark, it must fail."""
    (tmp_path / "perf").mkdir()
    for path in (ROOT / "perf").glob("*.py"):
        (tmp_path / "perf" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "live-private",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
