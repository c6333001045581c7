"""Differential policy-equivalence suite for the policy-zoo refactor.

The zoo moved every policy out of ``core/policy.py`` into
``repro.policy`` and threaded two new hooks (``note_invalidation``,
``should_thaw``) through the fault handler and the defrost daemon.  The
contract is that the paper's fixed freeze/thaw policy, selected
*explicitly* through the new interface (``policy="freeze"``), is
bit-identical to the pre-refactor engine: every golden-corpus spec must
reproduce its committed fingerprint -- simulated time, event count, the
full protocol counter dict, and the exact ``repro-trace/1`` bundle
bytes once the config is normalised for the (legitimately different)
explicit policy name.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import policy as policy_pkg
from repro.policy.registry import make_policy
from repro.replay import record_spec
from repro.workloads import WorkloadSpec
from repro.workloads.generate import (
    FINGERPRINTS_FILE,
    bench_spec_for,
    corpus_paths,
)

CORPUS = Path(__file__).parent / "corpus"


def corpus_specs():
    return [WorkloadSpec.load(p) for p in corpus_paths(CORPUS)]


@pytest.fixture(scope="module")
def committed():
    return json.loads((CORPUS / FINGERPRINTS_FILE).read_text())


def _normalized_sha256(bundle) -> str:
    """The bundle's SHA-256 with the policy provenance reset to how the
    committed fingerprints recorded it (default policy, no args).  The
    explicit policy name in ``config`` is the only byte allowed to
    differ; streams, layout and expected results must be identical."""
    bundle.config["policy"] = None
    bundle.config["policy_args"] = {}
    return hashlib.sha256(bundle.to_bytes()).hexdigest()


@pytest.mark.parametrize("spec", corpus_specs(), ids=lambda s: s.name)
def test_explicit_freeze_matches_committed_fingerprint(spec, committed):
    want = committed[spec.name]
    bundle, result = record_spec(bench_spec_for(spec, policy="freeze"))
    assert bundle.config["policy"] == "freeze"
    assert bundle.expected["sim_time_ns"] == int(result.sim_time_ns)
    assert bundle.expected["events_executed"] == want["events_executed"]
    assert bundle.expected["counters"] == want["counters"], (
        f"{spec.name}: protocol counters diverged under the new "
        "policy interface")
    assert bundle.n_ops == want["n_ops"]
    assert bundle.n_threads == want["n_threads"]
    assert _normalized_sha256(bundle) == want["trace_sha256"], (
        f"{spec.name}: trace bytes diverged under the new policy "
        "interface")


def test_counter_dict_is_complete(committed):
    # the fingerprint counters are the full protocol counter set; a
    # policy regression cannot hide in an uncompared counter
    for name, fp in committed.items():
        assert len(fp["counters"]) >= 15, name


def test_registry_freeze_is_the_papers_policy():
    policy = make_policy("freeze", None)
    assert isinstance(policy, policy_pkg.TimestampFreezePolicy)
    assert policy.t1 == 10_000_000.0
    assert policy.thaw_on_fault is False


