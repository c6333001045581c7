"""CLI observability: --ledger, repro obs ledger and bench --scale."""

import json

import pytest

from repro.cli import main
from repro.obs import read_ledger, validate_ledger

from tests.conftest import repro_child


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# -- the --ledger flag --------------------------------------------------------


def test_ledger_flag_wraps_any_verb_in_a_root_span(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    code, _out = run_cli(capsys, "--ledger", str(path), "table1")
    assert code == 0
    records = read_ledger(path)
    assert validate_ledger(records) == []
    assert records[0]["verb"] == "table1"
    root = next(r for r in records if r.get("name") == "cli.table1")
    assert root["status"] == "ok"
    assert root["attrs"]["exit_code"] == 0
    assert records[-1]["record"] == "close"


def test_repro_ledger_env_var_is_the_flag(tmp_path, capsys,
                                          monkeypatch):
    path = tmp_path / "ledger.jsonl"
    monkeypatch.setenv("REPRO_LEDGER", str(path))
    code, _out = run_cli(capsys, "transitions")
    assert code == 0
    assert read_ledger(path)[0]["verb"] == "transitions"


def test_failing_verb_ledgers_an_error_root_span(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    code, _out = run_cli(capsys, "--ledger", str(path),
                         "bench", "--scale", "warp")
    assert code == 2
    root = next(r for r in read_ledger(path)
                if r.get("name") == "cli.bench")
    assert root["status"] == "error"
    assert root["attrs"]["exit_code"] == 2


def test_record_pipeline_nests_stage_spans(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    trace = tmp_path / "g.trace"
    code, _out = run_cli(
        capsys, "--ledger", str(path), "record", "gauss",
        "-n", "12", "-p", "2", "--machine", "4", "-o", str(trace),
    )
    assert code == 0
    records = read_ledger(path)
    names = [r.get("name") for r in records
             if r.get("record") == "span"]
    assert "record.simulate" in names
    assert "record.save" in names
    root = next(r for r in records if r.get("name") == "cli.record")
    sim = next(r for r in records
               if r.get("name") == "record.simulate")
    assert sim["parent"] == root["sid"]
    assert sim["attrs"]["ops"] > 0
    # the pipeline continues: replay the bundle under its own ledger
    path2 = tmp_path / "replay.jsonl"
    code, _out = run_cli(capsys, "--ledger", str(path2),
                         "replay", str(trace))
    assert code == 0
    replay = next(r for r in read_ledger(path2)
                  if r.get("name") == "replay.run")
    assert replay["attrs"]["events_executed"] > 0


# -- repro obs ledger ---------------------------------------------------------


def test_obs_ledger_summarizes_the_span_tree(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    run_cli(capsys, "--ledger", str(path), "table1")
    code, out = run_cli(capsys, "obs", "ledger", str(path))
    assert code == 0
    assert "verb=table1" in out
    assert "cli.table1" in out


def test_obs_ledger_strip_wall_is_byte_stable(tmp_path, capsys):
    outs = []
    for i in range(2):
        path = tmp_path / f"ledger{i}.jsonl"
        run_cli(capsys, "--ledger", str(path), "table1")
        code, out = run_cli(capsys, "obs", "ledger", "--strip-wall",
                            str(path))
        assert code == 0
        # the stripped view must not mention the varying file name
        outs.append(out.replace(f"ledger{i}", "ledger"))
    assert outs[0] == outs[1]
    for line in outs[0].splitlines():
        assert "wall" not in json.loads(line)


def test_obs_ledger_missing_file_exits_2(tmp_path, capsys):
    code, out = run_cli(capsys, "obs", "ledger",
                        str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert "cannot read" in out


def test_obs_ledger_invalid_records_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record":"span","name":"x","wall":{}}\n')
    code, out = run_cli(capsys, "obs", "ledger", str(path))
    assert code == 1
    assert "ledger problem(s)" in out


# -- bench --scale ------------------------------------------------------------


def test_bench_scale_by_name(tmp_path, capsys):
    code, out = run_cli(capsys, "bench", "--scale", "smoke",
                        "--filter", "tab1_costmodel", "-q",
                        "--out", str(tmp_path))
    assert code == 0
    assert "bench smoke:" in out


def test_bench_unknown_scale_is_a_oneline_exit_2(tmp_path, capsys):
    code, out = run_cli(capsys, "bench", "--scale", "warp",
                        "--out", str(tmp_path))
    assert code == 2
    assert out.strip().splitlines() == [
        "repro bench: unknown scale 'warp' (have: smoke, quick, full)"
    ]


def test_bench_scale_conflicts_with_smoke_flag(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--scale", "smoke", "--smoke",
              "--out", str(tmp_path)])
    capsys.readouterr()


# -- repro obs ledger --follow ------------------------------------------------


def test_obs_ledger_follow_renders_a_completed_run(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    run_cli(capsys, "--ledger", str(path), "table1")
    code, out = run_cli(capsys, "obs", "ledger", "--follow",
                        str(path), "--poll-s", "0")
    assert code == 0
    assert "following repro table1" in out
    assert "ledger closed: status=ok" in out


def test_obs_ledger_follow_timeout_exits_2(tmp_path, capsys):
    code, out = run_cli(capsys, "obs", "ledger", "--follow",
                        str(tmp_path / "never.jsonl"),
                        "--poll-s", "0.01", "--timeout", "0.05")
    assert code == 2
    assert "repro obs ledger:" in out


def test_bench_ledger_carries_progress_ticks_and_heartbeats(
        tmp_path, capsys):
    from repro.obs import strip_wall_ledger

    path = tmp_path / "ledger.jsonl"
    code, _out = run_cli(
        capsys, "--ledger", str(path), "bench", "--scale", "smoke",
        "--filter", "tab1_costmodel", "-q",
        "--out", str(tmp_path / "r"))
    assert code == 0
    records = read_ledger(path)
    ticks = [r for r in records if r.get("record") == "tick"]
    names = {t["name"] for t in ticks}
    assert "bench.progress" in names
    assert "pool.heartbeat" in names
    progress = [t for t in ticks if t["name"] == "bench.progress"]
    assert progress[-1]["wall"]["done"] == \
        progress[-1]["wall"]["total"]
    assert all("tick" not in r.get("record", "")
               for r in strip_wall_ledger(records))


# -- Prometheus exposition and sampler guards ---------------------------------


def test_metrics_prom_format_passes_the_lint(capsys):
    from repro.telemetry import lint_prometheus

    code, out = run_cli(capsys, "metrics", "gauss", "-n", "12",
                        "-p", "2", "--machine", "4",
                        "--format", "prom")
    assert code == 0
    assert "# TYPE" in out
    assert lint_prometheus(out) == []


def test_metrics_from_file_prom_format(tmp_path, capsys):
    from repro.telemetry import lint_prometheus

    dump = tmp_path / "metrics.jsonl"
    code, _out = run_cli(capsys, "metrics", "gauss", "-n", "12",
                         "-p", "2", "--machine", "4",
                         "--out", str(dump))
    assert code == 0
    code, out = run_cli(capsys, "metrics", "--from", str(dump),
                        "--format", "prom")
    assert code == 0
    assert lint_prometheus(out) == []


def test_metrics_bad_sample_ms_is_a_oneline_exit_2(capsys):
    code, out = run_cli(capsys, "metrics", "gauss", "-n", "12",
                        "--sample-ms", "0")
    assert code == 2
    assert out.strip().splitlines() == [
        "repro metrics: --sample-ms must be positive, got 0.0"
    ]


def test_run_verb_bad_sample_ms_is_a_oneline_exit_2(tmp_path, capsys):
    code, out = run_cli(capsys, "gauss", "-n", "12", "-p", "2",
                        "--machine", "4", "--metrics-out",
                        str(tmp_path / "m.jsonl"),
                        "--sample-ms", "-1")
    assert code == 2
    assert out.strip().splitlines() == [
        "repro gauss: --sample-ms must be positive, got -1.0"
    ]


@pytest.mark.parametrize("verb", [
    ("gauss", "-p", "2", "--metrics-out", "m.jsonl"), ("metrics", "gauss")])
def test_a_sample_period_under_1_ns_is_one_line_not_a_hang(tmp_path, verb):
    """The sampler's period rule reaches the command line: 1e-7 ms used
    to tick at t = 0 forever.  A child process, so that a hang fails
    here instead of holding the suite."""
    done = repro_child(*verb, "-n", "8", "--machine", "2", "--sample-ms",
                       "0.0000001", cwd=tmp_path)
    assert done.returncode == 2, done.stderr
    (line,) = done.stdout.splitlines()
    assert line.startswith(f"repro {verb[0]}: --sample-ms 1e-07: ")
    assert not (tmp_path / "m.jsonl").exists()
