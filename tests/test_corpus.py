"""The committed golden corpus (``tests/corpus/``): generation is
byte-stable per seed (that every spec's recorded trace fingerprint
reproduces exactly is a pinned row of ``tests/test_matrix.py``).
Mirrors the ``BENCH_smoke.json`` drift contract: if any of this fails,
regenerate with ``python -m repro gen corpus`` and commit the result --
after confirming the change is intentional.
"""

import json
from pathlib import Path

import pytest

from repro.workloads import (
    WorkloadSpec,
    generate_spec,
    verify_corpus,
    write_corpus,
)
from repro.workloads.generate import FINGERPRINTS_FILE, corpus_paths

CORPUS = Path(__file__).parent / "corpus"


def corpus_specs():
    return [WorkloadSpec.load(p) for p in corpus_paths(CORPUS)]


def test_corpus_shape():
    specs = corpus_specs()
    assert len(specs) >= 20
    assert (CORPUS / FINGERPRINTS_FILE).is_file()
    # the corpus must exercise the interesting regimes
    assert any(s.false_sharing for s in specs)
    assert len({s.sharing for s in specs}) >= 5
    assert any(len(s.phases) > 1 for s in specs)


def test_corpus_specs_regenerate_byte_identically():
    """The committed bytes ARE generate_spec(seed, profile) -- the
    generator cannot drift without this test failing."""
    for path in corpus_paths(CORPUS):
        spec = WorkloadSpec.load(path)
        regenerated = generate_spec(spec.seed, spec.profile)
        assert regenerated.to_json() == path.read_text(), (
            f"{path.name}: generator drifted for seed {spec.seed}")


def test_verify_corpus_clean_on_the_committed_corpus():
    # bytes-only here: every committed fingerprint is a pinned row of
    # the equivalence plan (tests/test_matrix.py), recorded once there
    assert verify_corpus(CORPUS, fingerprints=False) == []


def test_verify_corpus_reports_drift(tmp_path):
    paths = write_corpus(tmp_path, n=2, base_seed=100)
    spec_path = next(p for p in paths if p.name != FINGERPRINTS_FILE)
    # byte drift: rewrite one generated spec with a different phase
    doc = json.loads(spec_path.read_text())
    doc["phases"][0]["compute_ns"] = 123.0
    spec_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    problems = verify_corpus(tmp_path, fingerprints=False)
    assert len(problems) == 1
    assert "bytes differ" in problems[0]


def test_verify_corpus_reports_fingerprint_drift(tmp_path):
    write_corpus(tmp_path, n=1, base_seed=100)
    fp_path = tmp_path / FINGERPRINTS_FILE
    fps = json.loads(fp_path.read_text())
    (name, fp), = fps.items()
    fp["trace_sha256"] = "0" * 64
    fp_path.write_text(json.dumps(fps, sort_keys=True, indent=2) + "\n")
    problems = verify_corpus(tmp_path)
    assert any("fingerprint drifted" in p for p in problems)


def test_verify_corpus_reports_missing_and_extra(tmp_path):
    write_corpus(tmp_path, n=2, base_seed=100)
    paths = sorted(p for p in tmp_path.glob("*.json")
                   if p.name != FINGERPRINTS_FILE)
    paths[0].unlink()
    problems = verify_corpus(tmp_path, fingerprints=True)
    assert any("has no spec file" in p for p in problems)


def test_verify_corpus_empty_directory(tmp_path):
    assert verify_corpus(tmp_path) == [f"{tmp_path}: no spec files found"]


@pytest.fixture(params=sorted(p.name for p in corpus_paths(CORPUS)))
def corpus_spec(request):
    return WorkloadSpec.load(CORPUS / request.param)


def test_corpus_spec_is_valid(corpus_spec):
    corpus_spec.validate()
    assert corpus_spec.profile == "smoke"
