"""Property tests for the declarative workload spec layer
(``repro.workloads.spec``): roundtrip identity, canonical serialization
and strict one-line validation errors.
"""

import json

import pytest

from repro import doc
from repro.workloads import PhaseSpec, SpecError, WorkloadSpec
from repro.workloads.generate import generate_spec


def from_json(text):
    """A spec from its JSON text, as ``WorkloadSpec.load`` reads one."""
    return WorkloadSpec.from_dict(doc.parse(text, "spec", SpecError))


def small_spec(**overrides):
    fields = dict(
        name="t", seed=1, threads=2, machine=4, pages=3,
        phases=(PhaseSpec(ops=4),),
    )
    fields.update(overrides)
    return WorkloadSpec(**fields)


# -- roundtrip ----------------------------------------------------------------


def test_roundtrip_identity_hand_written():
    spec = small_spec(
        sharing="hotspot", words_per_op=4, false_sharing=1,
        placement="interleave", zipf_s=1.5,
        phases=(
            PhaseSpec(ops=4, mix={"read": 0.9, "write": 0.1},
                      access="zipf", working_pages=2,
                      compute_ns=100.0, barrier=False),
            PhaseSpec(ops=8),
        ),
    ).validate()
    again = from_json(spec.to_json())
    assert again == spec
    assert again.to_json() == spec.to_json()


@pytest.mark.parametrize("seed", range(50, 60))
def test_roundtrip_identity_generated(seed):
    spec = generate_spec(seed, "smoke")
    assert from_json(spec.to_json()) == spec


def test_to_json_is_canonical():
    """Sorted keys, two-space indent, trailing newline: the committed
    corpus relies on byte-stable serialization."""
    text = small_spec().validate().to_json()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert doc["schema"] == "repro-workload/1"


def test_save_load_roundtrip(tmp_path):
    spec = generate_spec(42, "smoke")
    path = spec.save(tmp_path / "spec.json")
    assert WorkloadSpec.load(path) == spec


# -- validation rejects malformed specs ---------------------------------------


@pytest.mark.parametrize("overrides, fragment", [
    ({"pages": -3}, "pages must be at least 1"),
    ({"pages": 0}, "pages must be at least 1"),
    ({"threads": 0}, "threads must be at least 1"),
    ({"machine": 0}, "machine must be at least 1"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"sharing": "psychic"}, "unknown sharing pattern"),
    ({"words_per_op": 0}, "words_per_op must be at least 1"),
    ({"false_sharing": -1}, "false_sharing must be a non-negative"),
    ({"placement": "moon"}, "placement must be null"),
    ({"placement": True}, "placement must be null"),
    ({"zipf_s": 0.0}, "zipf_s must be positive"),
    ({"profile": "huge"}, "unknown profile"),
    ({"phases": ()}, "phases must be a non-empty list"),
    ({"name": ""}, "name must be a non-empty string"),
])
def test_validate_rejects(overrides, fragment):
    with pytest.raises(SpecError) as err:
        small_spec(**overrides).validate()
    message = str(err.value)
    assert fragment in message
    assert "\n" not in message  # one-line, CLI-printable


@pytest.mark.parametrize("phase, fragment", [
    (PhaseSpec(ops=0), "ops must be at least 1"),
    (PhaseSpec(ops=4, mix={"read": 0.5, "write": 0.6}),
     "mix must sum to 1"),
    (PhaseSpec(ops=4, mix={"read": 1.5, "write": -0.5}),
     "must be in [0, 1]"),
    (PhaseSpec(ops=4, mix={"read": 1.0}),
     "exactly 'read' and 'write'"),
    (PhaseSpec(ops=4, access="teleport"),
     "unknown access distribution"),
    (PhaseSpec(ops=4, working_pages=0),
     "working_pages must be at least 1"),
    (PhaseSpec(ops=4, compute_ns=-1.0),
     "compute_ns must be non-negative"),
])
def test_phase_validate_rejects(phase, fragment):
    with pytest.raises(SpecError) as err:
        small_spec(phases=(phase,)).validate()
    assert fragment in str(err.value)


def test_working_pages_bounded_by_working_set():
    with pytest.raises(SpecError, match="exceeds the working set"):
        small_spec(pages=2,
                   phases=(PhaseSpec(ops=4, working_pages=5),)).validate()


# -- strict deserialization ----------------------------------------------------


def test_from_dict_rejects_unknown_keys():
    doc = small_spec().validate().to_dict()
    doc["turbo"] = True
    with pytest.raises(SpecError, match="unknown key"):
        WorkloadSpec.from_dict(doc)


def test_from_dict_rejects_unknown_phase_keys():
    doc = small_spec().validate().to_dict()
    doc["phases"][0]["color"] = "red"
    with pytest.raises(SpecError, match="unknown key"):
        WorkloadSpec.from_dict(doc)


def test_from_dict_rejects_wrong_schema():
    doc = small_spec().validate().to_dict()
    doc["schema"] = "repro-workload/999"
    with pytest.raises(SpecError, match="schema"):
        WorkloadSpec.from_dict(doc)


@pytest.mark.parametrize("missing", ["name", "seed", "threads",
                                     "machine", "pages"])
def test_from_dict_requires_core_keys(missing):
    doc = small_spec().validate().to_dict()
    del doc[missing]
    with pytest.raises(SpecError, match=f"missing required key '{missing}'"):
        WorkloadSpec.from_dict(doc)


def test_from_json_reports_parse_errors():
    with pytest.raises(SpecError, match="not JSON"):
        from_json("{nope")


def test_load_prefixes_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "repro-workload/1", "name": "x"}')
    with pytest.raises(SpecError) as err:
        WorkloadSpec.load(path)
    assert str(path) in str(err.value)


def test_load_missing_file(tmp_path):
    with pytest.raises(SpecError, match="cannot read"):
        WorkloadSpec.load(tmp_path / "absent.json")
