"""Tests for ``repro explain`` and the ``repro metrics`` file mode.

The contract under test: live runs and saved bundles produce identical
reports, ``--format json`` is byte-stable across same-seed runs, and
bad input exits 2 with a one-line error instead of a traceback.
"""

from repro.cli import main

SEC42 = ("explain", "sec42", "-p", "4", "--machine", "4")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_explain_sec42_text_report(capsys):
    code, out = run_cli(capsys, *SEC42)
    assert code == 0
    assert "explain: sec42" in out
    assert "(exact)" in out  # the attribution reconciled
    assert "time by category" in out
    # the anecdote's falsely-shared page leads the ranking
    assert "#1 cpage" in out and "misc" in out
    assert "counterfactual: remote_map" in out
    assert "lifecycle of cpage" in out


def test_explain_critical_path_flag(capsys):
    code, out = run_cli(capsys, *SEC42, "--critical-path")
    assert code == 0
    assert "critical path:" in out
    assert "% of simulated time" in out


def test_explain_json_is_byte_identical_across_runs(capsys):
    code_a, out_a = run_cli(capsys, *SEC42, "--format", "json",
                            "--critical-path")
    code_b, out_b = run_cli(capsys, *SEC42, "--format", "json",
                            "--critical-path")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_explain_live_and_bundle_agree_exactly(capsys, tmp_path):
    bundle = tmp_path / "sec42.jsonl"
    code, live = run_cli(capsys, *SEC42, "--format", "json",
                         "--save", str(bundle))
    assert code == 0
    code, loaded = run_cli(capsys, "explain", str(bundle),
                           "--format", "json")
    assert code == 0
    assert live == loaded


def test_explain_workload_by_name(capsys):
    code, out = run_cli(capsys, "explain", "gauss", "-n", "16",
                        "-p", "2", "--machine", "2")
    assert code == 0
    assert "explain: gauss" in out
    assert "(exact)" in out


def test_explain_page_flag_adds_timeline(capsys):
    code, out = run_cli(capsys, *SEC42, "--page", "0")
    assert code == 0
    assert "lifecycle of cpage 0" in out


def test_explain_missing_file_is_one_line_error(capsys):
    code, out = run_cli(capsys, "explain", "/no/such/trace.jsonl")
    assert code == 2
    assert out.startswith("repro explain: /no/such/trace.jsonl: cannot read")
    assert len(out.strip().splitlines()) == 1
    assert "Traceback" not in out


def test_explain_schema_mismatch_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"metric": true, "name": "x"}\n')
    code, out = run_cli(capsys, "explain", str(path))
    assert code == 2
    assert out.startswith("repro explain:")
    assert len(out.strip().splitlines()) == 1


def test_explain_bare_trace_degrades(capsys, tmp_path):
    trace = tmp_path / "bare.jsonl"
    code, _ = run_cli(
        capsys, "gauss", "-n", "16", "-p", "2", "--machine", "2",
        "--no-verify", "--trace-out", str(trace),
    )
    assert code == 0
    code, out = run_cli(capsys, "explain", str(trace))
    assert code == 0
    assert "bare trace: protocol costs only" in out


def test_metrics_from_file_summarizes(capsys, tmp_path):
    out_path = tmp_path / "m.jsonl"
    code, _ = run_cli(
        capsys, "metrics", "gauss", "-n", "16", "-p", "2",
        "--machine", "2", "--out", str(out_path),
    )
    assert code == 0
    code, out = run_cli(capsys, "metrics", "--from", str(out_path))
    assert code == 0
    assert "metric record(s)" in out
    assert "faults_total" in out or "shootdowns_total" in out


def test_metrics_from_missing_file_exits_2(capsys):
    code, out = run_cli(capsys, "metrics", "--from", "/no/such.jsonl")
    assert code == 2
    assert out.startswith("repro metrics: /no/such.jsonl: cannot read")
    assert len(out.strip().splitlines()) == 1


def test_metrics_from_wrong_records_exits_2(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"time": 0, "kind": "fault"}\n')
    code, out = run_cli(capsys, "metrics", "--from", str(path))
    assert code == 2
    assert "not a metric/sample record" in out


def test_metrics_without_workload_or_file_exits_2(capsys):
    code, out = run_cli(capsys, "metrics")
    assert code == 2
    assert "give a workload" in out
