"""Tests for the command-line interface."""

import gc

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_table1_command(capsys):
    code, out = run_cli(capsys, "table1")
    assert code == 0
    assert "S_min" in out
    assert "never" in out


def test_table1_machine_constants(capsys):
    code, out = run_cli(capsys, "table1", "--machine-constants")
    assert code == 0
    assert "S_min" in out


def test_transitions_command(capsys):
    code, out = run_cli(capsys, "transitions")
    assert code == 0
    assert "present1" in out and "modified" in out


def test_micro_command(capsys):
    code, out = run_cli(capsys, "micro")
    assert code == 0
    assert "[ok]" in out
    assert "OUT-OF-RANGE" not in out


@pytest.mark.parametrize("argv", [["micro"], ["check", "invariants"]])
def test_a_second_call_leaves_no_cyclic_garbage(capsys, argv):
    """The parser is built once per process, so a call leaves nothing
    for the cyclic collector (it left ~1,700 parser objects a call)."""
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_gauss_run_command(capsys):
    code, out = run_cli(
        capsys, "gauss", "-n", "16", "-p", "4", "--machine", "4"
    )
    assert code == 0
    assert "gauss:" in out
    assert "post-mortem" in out


def test_gauss_run_with_trace(capsys):
    code, out = run_cli(
        capsys, "gauss", "-n", "12", "-p", "2", "--machine", "2",
        "--trace", "--no-verify",
    )
    assert code == 0
    assert "protocol trace" in out


def test_mergesort_run_command(capsys):
    code, out = run_cli(
        capsys, "mergesort", "-n", "512", "-p", "2", "--machine", "2"
    )
    assert code == 0
    assert "mergesort:" in out


def test_neural_run_command(capsys):
    code, out = run_cli(
        capsys, "neural", "-p", "4", "--machine", "4", "--epochs", "2"
    )
    assert code == 0
    assert "neural:" in out


def test_jacobi_run_command(capsys):
    code, out = run_cli(
        capsys, "jacobi", "-n", "16", "-p", "2", "--machine", "2",
        "--epochs", "2",
    )
    assert code == 0
    assert "jacobi:" in out


def test_matmul_run_command(capsys):
    code, out = run_cli(
        capsys, "matmul", "-n", "12", "-p", "2", "--machine", "2"
    )
    assert code == 0
    assert "matmul:" in out


def test_speedup_command(capsys):
    code, out = run_cli(
        capsys, "speedup", "gauss", "-n", "24", "--counts", "1,2",
        "--machine", "2",
    )
    assert code == 0
    assert "speedup" in out
    assert "ideal" in out


def test_compare_command(capsys):
    code, out = run_cli(
        capsys, "compare", "-n", "24", "--machine", "4"
    )
    assert code == 0
    for name in ("PLATINUM", "Uniform System", "SMP"):
        assert name in out


def test_dashboard_command(capsys):
    code, out = run_cli(
        capsys, "dashboard", "gauss", "-n", "16", "-p", "2",
        "--machine", "2",
    )
    assert code == 0
    assert "per-processor memory profile" in out
    assert "protocol activity" in out


def test_run_trace_out_chrome(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.json"
    code, out = run_cli(
        capsys, "gauss", "-n", "12", "-p", "2", "--machine", "2",
        "--no-verify", "--trace-out", str(out_path),
    )
    assert code == 0
    assert f"wrote trace to {out_path}" in out
    doc = json.loads(out_path.read_text())
    assert doc["traceEvents"]
    # streaming only: no --trace means nothing is retained in memory
    assert "protocol trace" not in out


def test_run_trace_out_jsonl_with_timeline(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.jsonl"
    code, out = run_cli(
        capsys, "gauss", "-n", "12", "-p", "2", "--machine", "2",
        "--no-verify", "--trace", "--trace-out", str(out_path),
    )
    assert code == 0
    assert "protocol trace" in out  # retained AND streamed
    lines = out_path.read_text().splitlines()
    assert lines
    assert json.loads(lines[0])["kind"]


def test_run_metrics_out(tmp_path, capsys):
    import json

    out_path = tmp_path / "metrics.jsonl"
    code, out = run_cli(
        capsys, "gauss", "-n", "12", "-p", "2", "--machine", "2",
        "--no-verify", "--metrics-out", str(out_path),
        "--sample-ms", "2",
    )
    assert code == 0
    records = [json.loads(line)
               for line in out_path.read_text().splitlines()]
    kinds = {r["record"] for r in records}
    assert kinds == {"metric", "sample"}


def test_metrics_command(capsys):
    code, out = run_cli(
        capsys, "metrics", "gauss", "-n", "16", "-p", "2",
        "--machine", "2",
    )
    assert code == 0
    assert "metrics registry" in out
    assert "faults_total" in out
    assert "sampled system state" in out


def test_metrics_command_writes_out(tmp_path, capsys):
    out_path = tmp_path / "m.jsonl"
    code, out = run_cli(
        capsys, "metrics", "gauss", "-n", "16", "-p", "2",
        "--machine", "2", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.exists()


def test_run_help_documents_retention(capsys):
    with pytest.raises(SystemExit):
        run_cli(capsys, "gauss", "--help")
    out = capsys.readouterr().out
    assert "trace retention modes" in out
    assert "Perfetto" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
