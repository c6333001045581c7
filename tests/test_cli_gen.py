"""The ``repro gen`` CLI verb and its integrations: deterministic
emission, one-line exit-2 errors, corpus drift checking from the shell,
``repro check fuzz --corpus`` and the section 4.2-style diagnosis of a
generated false-sharing spec through ``repro explain``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

from tests.conftest import repro_child

CORPUS = Path(__file__).parent / "corpus"
FS_SPEC = CORPUS / "gen-smoke-00102-uniform.json"


# -- emit ---------------------------------------------------------------------


def test_gen_emit_is_deterministic(tmp_path, capsys):
    """The headline acceptance: two invocations of ``repro gen`` with
    the same seed produce byte-identical spec files."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "emit", "--seed", "55", "-n", "3",
                 "-o", str(a)]) == 0
    assert main(["gen", "emit", "--seed", "55", "-n", "3",
                 "-o", str(b)]) == 0
    capsys.readouterr()
    files_a = sorted(p.name for p in a.glob("*.json"))
    assert len(files_a) == 3
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_emit_to_stdout(capsys):
    assert main(["gen", "emit", "--seed", "55", "-o", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro-workload/1"
    assert doc["seed"] == 55


def test_gen_emit_rejects_bad_count(capsys):
    assert main(["gen", "emit", "--seed", "1", "-n", "0",
                 "-o", "-"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("repro gen: ")
    assert out.count("\n") == 1


# -- validate -----------------------------------------------------------------


def test_gen_validate_ok(capsys):
    assert main(["gen", "validate", str(FS_SPEC)]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("doc, fragment", [
    ({"schema": "repro-workload/1", "name": "x", "seed": 1,
      "threads": 0, "machine": 4, "pages": 2},
     "threads must be at least 1"),
    ({"schema": "repro-workload/1", "name": "x", "seed": 1,
      "threads": 2, "machine": 4, "pages": -5},
     "pages must be at least 1"),
    ({"schema": "repro-workload/1", "name": "x", "seed": 1,
      "threads": 2, "machine": 4, "pages": 2,
      "phases": [{"ops": 4, "mix": {"read": 0.9, "write": 0.3}}]},
     "mix must sum to 1"),
])
def test_gen_validate_malformed_specs_exit_2(tmp_path, capsys, doc,
                                             fragment):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["gen", "validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("repro gen: ")
    assert fragment in out
    assert out.count("\n") == 1  # one-line, like `repro explain`


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("compute_ns", ["Infinity", "NaN", "1e300"])
def test_absurd_compute_ns_is_one_line_and_exit_2(tmp_path, verb,
                                                 compute_ns):
    # a child process under a timeout: `gen run` used to end in a
    # traceback (infinity, NaN) or to tick the defrost daemon toward
    # 1e300 ns forever
    path = tmp_path / "absurd.json"
    path.write_text(
        '{"schema": "repro-workload/1", "name": "absurd", "seed": 1,'
        ' "threads": 2, "machine": 2, "pages": 2,'
        f' "phases": [{{"ops": 2, "compute_ns": {compute_ns}}}]}}')
    done = repro_child("gen", verb, str(path))
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr == ""
    (line,) = done.stdout.splitlines()
    assert line.startswith("repro gen: "), line
    assert "compute_ns must be non-negative and at most 1e+09" in line


def test_every_generation_profile_stays_under_the_compute_cap():
    from repro.workloads.generate import _PROFILE_RANGES
    from repro.workloads.spec import MAX_COMPUTE_NS

    for ranges in _PROFILE_RANGES.values():
        assert max(ranges["compute"]) <= MAX_COMPUTE_NS


# -- run ----------------------------------------------------------------------


def test_gen_run_from_seed(capsys):
    assert main(["gen", "run", "--seed", "100",
                 "--check-invariants"]) == 0
    out = capsys.readouterr().out
    assert "ms simulated" in out
    assert "invariants clean" in out


def test_gen_run_spec_file_with_policy(capsys):
    assert main(["gen", "run", str(FS_SPEC), "--policy", "never",
                 "--machine", "8"]) == 0
    assert "/ 8 processors" in capsys.readouterr().out


def test_gen_run_fingerprint_is_stable(capsys):
    assert main(["gen", "run", str(FS_SPEC), "--fingerprint"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "run", str(FS_SPEC), "--fingerprint"]) == 0
    assert capsys.readouterr().out == first
    assert "fingerprint:" in first


def test_gen_run_needs_input(capsys):
    assert main(["gen", "run"]) == 2
    assert capsys.readouterr().out.startswith("repro gen: ")


# -- corpus / verify ----------------------------------------------------------


def test_gen_corpus_and_verify_cycle(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["gen", "corpus", "-o", str(corpus), "-n", "2",
                 "--base-seed", "300"]) == 0
    assert main(["gen", "verify", str(corpus)]) == 0
    capsys.readouterr()
    # tamper a spec -> drift detected, exit 1
    victim = next(p for p in corpus.glob("gen-*.json"))
    victim.write_text(victim.read_text().replace(
        '"compute_ns": ', '"compute_ns": 9'))
    assert main(["gen", "verify", str(corpus),
                 "--no-fingerprints"]) == 1
    assert "bytes differ" in capsys.readouterr().out


def test_gen_verify_committed_corpus_bytes(capsys):
    assert main(["gen", "verify", str(CORPUS),
                 "--no-fingerprints"]) == 0
    assert "corpus ok" in capsys.readouterr().out


# -- check fuzz --corpus ------------------------------------------------------


def test_check_fuzz_corpus_cli(capsys):
    assert main(["check", "fuzz", "--corpus", str(CORPUS),
                 "--policies", "freeze"]) == 0
    out = capsys.readouterr().out
    assert "all interleavings conform" in out


def test_check_fuzz_corpus_missing_dir(tmp_path, capsys):
    assert main(["check", "fuzz", "--corpus", str(tmp_path)]) == 2
    assert "no spec files" in capsys.readouterr().out


def test_check_fuzz_corpus_bad_policy(capsys):
    assert main(["check", "fuzz", "--corpus", str(CORPUS),
                 "--policies", "warp"]) == 2
    assert "unknown fuzz policy" in capsys.readouterr().out


# -- the section 4.2-style diagnosis ------------------------------------------


def test_explain_diagnoses_generated_false_sharing(capsys):
    """The PR's acceptance criterion: a generated false-sharing spec
    reproduces the paper's section 4.2 diagnosis through ``repro
    explain`` -- the injected ``gen-fs`` page ranks #1 by attributed
    coherence cost, the attribution reconciles exactly, and the
    counterfactual recommends remote mapping."""
    assert main(["explain", str(FS_SPEC), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    top = doc["top_pages"][0]
    assert top["label"].startswith("gen-fs"), top
    assert top["verdict"]["recommended"] == "remote_map", top["verdict"]
    attribution = doc["attribution"]
    assert attribution["reconciled"]
    assert sum(attribution["per_category"].values()) == \
        attribution["budget_ns"]


def test_explain_rejects_malformed_spec_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema": "repro-workload/1", "name": "x", "seed": 1,
        "threads": 0, "machine": 4, "pages": 2}))
    assert main(["explain", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("repro explain: ")
