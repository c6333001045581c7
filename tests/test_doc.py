"""The one document boundary (``repro.doc``): the hostile-document matrix
over all ten ``repro-*/1`` schemas, the hostile commands end to end,
and the byte contracts of the two spellings.

A hostile document is refused in one line that names the file.  Eight
loaders raise a :class:`~repro.doc.DocError`; two *report* (the ledger
validator and the corpus verifier return a list of problems, which the
CLI prints with exit 1), so the matrix accepts a non-empty problem list
from those two where no error is raised.
"""

import copy
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import doc
from repro.bench import load_bench, load_snapshot
from repro.bench.schema import make_doc
from repro.bench.snapshot import snapshot_doc
from repro.obs import DOCTOR_SCHEMA, diagnose, read_ledger, validate_ledger
from repro.point import point_kernel, point_program
from repro.policy import load_tuned
from repro.profile import AccessProbe, ProfileSource, build_explain
from repro.replay import TraceBundle, load_trace, record_spec
from repro.runtime import run_program
from repro.workloads import WorkloadSpec, verify_corpus

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "corpus"
GAUSS = {"kind": "run", "workload": "gauss", "machine": 2,
         "args": {"n": 8, "n_threads": 2, "verify_result": False}}
MAGIC = b"REPROTRC1\n"


# -- valid instances of every schema -------------------------------------------


def bench_doc():
    return make_doc(
        target="t", title="a target", scale="smoke", config={"n": 8},
        points=[{"name": "p=2", "config": {"p": 2}, "seed": 7,
                 "metrics": {"sim_time_ms": 5.0}, "error": None,
                 "ok": True, "wall_s": 1.0}],
        derived={}, counters={"faults": 12}, wall_clock_s=1.0, jobs=1)


@pytest.fixture(scope="module")
def source():
    """One small traced run, profiled: feeds the profile, explain and
    findings documents."""
    kernel = point_kernel(GAUSS, trace=True)
    probe = AccessProbe.install(kernel.coherent)
    result = run_program(kernel, point_program(GAUSS))
    return ProfileSource.from_run(kernel, result, probe, workload="gauss")


@pytest.fixture(scope="module")
def bundle_bytes():
    bundle, _result = record_spec(GAUSS)
    return bundle.to_bytes()


def split_bundle(raw: bytes):
    """``(header, payload)`` of bundle bytes."""
    (n,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8
    return json.loads(raw[start:start + n]), raw[start + n:]


def shape_of(value):
    """The shape a written document announces about itself -- for the
    three schemas the program writes and never reads back."""
    if isinstance(value, dict):
        return {key: shape_of(item) for key, item in value.items()}
    if isinstance(value, list):
        return [shape_of(value[0])] if value else list
    return None if value is None else type(value)


class Schema:
    """One row of the matrix: a valid instance, how it is spelled on
    disk, its owning loader, and where to hurt it."""

    def __init__(self, name, value, load, drop, mistype, nested,
                 tag=("schema",), spell=doc.pretty, file="doc.json",
                 not_object=None, not_json=b"{nope"):
        self.name, self.value, self.load = name, value, load
        self.drop, self.mistype, self.nested = drop, mistype, nested
        self.tag, self.spell, self.file = tag, spell, file
        self.not_object = [1] if not_object is None else not_object
        self.not_json = not_json

    def write(self, directory: Path, value) -> Path:
        path = directory / self.file
        path.parent.mkdir(parents=True, exist_ok=True)
        text = self.spell(value)
        path.write_bytes(text if isinstance(text, bytes)
                         else text.encode())
        return path


def put(value, where, new):
    """A deep copy of ``value`` with the item at key path ``where``
    replaced (or, for ``new is put``, removed)."""
    out = copy.deepcopy(value)
    node = out
    for key in where[:-1]:
        node = node[key]
    if new is put:
        del node[where[-1]]
    else:
        node[where[-1]] = new
    return out


def reader(tag, value):
    """The generic reader, for a schema that has no loader of its own."""
    shape = shape_of(value)
    return lambda path: doc.read(path, tag, shape)


def ledger_loader(path):
    return validate_ledger(read_ledger(path))


def corpus_loader(path):
    return verify_corpus(path.parent)


LEDGER = [
    {"record": "meta", "schema": "repro-events/1", "verb": "bench",
     "argv": [], "wall": {"pid": 1, "t0_s": 0.0}},
    {"record": "span", "sid": 1, "parent": None, "name": "cli.bench",
     "status": "ok", "wall": {"t0_s": 0.0, "dur_s": 0.1}},
    {"record": "close", "status": "ok", "spans": 1, "events": 0,
     "wall": {"dur_s": 0.1}},
]
TUNED = {"schema": "repro-tune/1", "policy": "adaptive",
         "policy_args": {"t1_hot_factor": 16.0}, "sim_time_ns": 5}
SPEC_FILE = CORPUS / "gen-smoke-00100-uniform.json"


def schemas(source, bundle_bytes):
    """The ten rows (built lazily: three need the traced run)."""
    bench = bench_doc()
    snapshot = snapshot_doc({"t": bench}, "smoke")
    explain = build_explain(source, top=2).to_dict()
    findings = diagnose(source)
    profile = [*source.events[:8], source._meta()]
    header, payload = split_bundle(bundle_bytes)
    spec = json.loads(SPEC_FILE.read_text())
    fingerprints = {spec["name"]: json.loads(
        (CORPUS / "FINGERPRINTS.json").read_text())[spec["name"]]}

    def spell_bundle(value):
        raw = value if isinstance(value, bytes) \
            else doc.compact(value).encode()
        return MAGIC + struct.pack("<Q", len(raw)) + raw + payload

    return [
        Schema("bench", bench, load_bench, ("target",),
               (("jobs",), "two"), (("points", 0), 7)),
        Schema("bench-snapshot", snapshot, load_snapshot, ("targets",),
               (("targets",), [1]), (("targets", "t", "points"), "x")),
        Schema("events", LEDGER, ledger_loader, (1, "sid"),
               ((1, "sid"), "one"), ((1, "wall"), 3), tag=(0, "schema"),
               spell=doc.jsonl, file="ledger.jsonl",
               not_object=[LEDGER[0], [1, 2], LEDGER[2]],
               not_json=b"{nope\n{}\n"),
        Schema("explain", explain, reader("repro-explain/1", explain),
               ("attribution",), (("complete",), "yes"),
               (("top_pages",), {"cpage": 1})),
        Schema("findings", findings, reader(DOCTOR_SCHEMA, findings),
               ("detectors",), (("sim_time_ns",), "soon"),
               (("counts",), [1])),
        Schema("genfp", fingerprints, corpus_loader,
               (spec["name"], "counters"),
               ((spec["name"], "n_ops"), "many"),
               ((spec["name"],), [1]), tag=(spec["name"], "schema"),
               file="FINGERPRINTS.json"),
        Schema("profile", profile, ProfileSource.load,
               (-1, "sim_time_ns"), ((0, "time"), "x"),
               ((-1, "access"), [1]), tag=(-1, "schema"),
               spell=doc.jsonl, file="profile.jsonl",
               not_object=[[1, 2]], not_json=b"{nope\n{}\n"),
        Schema("trace", header, load_trace, ("streams", 0, "offset"),
               (("config",), 7), (("streams", 0), 5),
               spell=spell_bundle, file="g.trace"),
        Schema("tune", TUNED, load_tuned, ("policy",),
               (("policy",), 7), (("policy_args",), [1])),
        Schema("workload", spec, WorkloadSpec.load, ("seed",),
               (("threads",), "four"), (("phases",), {"ops": 4})),
    ]


SCHEMA_NAMES = ("bench", "bench-snapshot", "events", "explain",
                "findings", "genfp", "profile", "trace", "tune",
                "workload")
HOSTILE = ("missing file", "empty file", "not JSON", "not an object",
           "wrong schema", "required key missing",
           "required key of the wrong type",
           "nested value of the wrong type")


@pytest.fixture(scope="module")
def rows(source, bundle_bytes):
    rows = schemas(source, bundle_bytes)
    assert tuple(row.name for row in rows) == SCHEMA_NAMES
    return {row.name: row for row in rows}


def refusal(row, path) -> str:
    """The one line ``row.load(path)`` refuses the file with."""
    try:
        problems = row.load(path)
    except doc.DocError as exc:
        message = str(exc)
        assert message.startswith(str(path)), message
        return message
    assert row.name in ("events", "genfp"), \
        f"{row.name}: loaded a hostile document"
    assert problems, f"{row.name}: no problem reported"
    return problems[0]


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_a_valid_document_loads(rows, tmp_path, name):
    row = rows[name]
    if name == "genfp":
        (tmp_path / SPEC_FILE.name).write_text(SPEC_FILE.read_text())
    loaded = row.load(row.write(tmp_path, row.value))
    if name in ("events", "genfp"):
        assert loaded == []  # no problem reported


@pytest.mark.parametrize("case", HOSTILE)
@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_a_hostile_document_is_refused_in_one_line(rows, tmp_path, name,
                                                   case):
    row = rows[name]
    if name == "genfp":
        (tmp_path / SPEC_FILE.name).write_text(SPEC_FILE.read_text())
    if case == "missing file":
        path = tmp_path / row.file
    elif case == "empty file":
        path = row.write(tmp_path, row.value)
        path.write_bytes(b"")
    elif case == "not JSON":
        if name == "trace":
            path = row.write(tmp_path, row.not_json)
        else:
            path = row.write(tmp_path, row.value)
            path.write_bytes(row.not_json)
    elif case == "not an object":
        path = row.write(tmp_path, row.not_object)
    elif case == "wrong schema":
        path = row.write(tmp_path, put(row.value, row.tag, "repro-x/9"))
    elif case == "required key missing":
        path = row.write(tmp_path, put(row.value, row.drop, put))
    elif case == "required key of the wrong type":
        path = row.write(tmp_path, put(row.value, *row.mistype))
    else:
        path = row.write(tmp_path, put(row.value, *row.nested))
    assert "\n" not in refusal(row, path)


# -- the hostile commands, end to end ------------------------------------------

EVENT = {"time": 5, "kind": "fault", "cpage": 2, "proc": 0, "detail": {}}


def lines(*records) -> str:
    return "".join(json.dumps(record) + "\n" for record in records)


def hostile_files(directory: Path) -> None:
    def bundle(name, header):
        raw = json.dumps(header).encode()
        (directory / name).write_bytes(
            MAGIC + struct.pack("<Q", len(raw)) + raw)

    texts = {
        "P1.jsonl": lines({"record": "profile_meta",
                           "schema": "repro-profile/1"}, EVENT),
        "P2.jsonl": lines({**EVENT, "time": "x"}, EVENT),
        "L.jsonl": lines(LEDGER[0], [1, 2], LEDGER[2]),
        "M.jsonl": lines({"record": "metric", "name": "x"}),
        "listed/FINGERPRINTS.json": "[1]",
        "torn/FINGERPRINTS.json": '{"a": ',
    }
    for name, text in texts.items():
        path = directory / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        if path.name == "FINGERPRINTS.json":
            (path.parent / SPEC_FILE.name).write_text(
                SPEC_FILE.read_text())
    bundle("T1.trace", [1])
    bundle("T2.trace", {"schema": "repro-trace/1", "streams": [{}]})
    bundle("T3.trace", {"schema": "repro-trace/1", "config": 7})


HOSTILE_COMMANDS = (
    ("explain P1.jsonl", "repro explain: P1.jsonl:1: "),
    ("doctor P1.jsonl", "repro doctor: P1.jsonl:1: "),
    ("explain P2.jsonl", "repro explain: P2.jsonl:1: time"),
    ("doctor P2.jsonl", "repro doctor: P2.jsonl:1: time"),
    ("obs ledger L.jsonl", "repro obs ledger: L.jsonl:2: "),
    ("replay T1.trace", "repro replay: T1.trace: "),
    ("replay T2.trace", "repro replay: T2.trace: "),
    ("replay T3.trace", "repro replay: T3.trace: "),
    ("gen verify listed", "repro gen: listed/FINGERPRINTS.json: "),
    ("gen verify torn", "repro gen: torn/FINGERPRINTS.json: not JSON"),
    # used to answer, wrongly, with exit 0
    ("metrics --from M.jsonl", "repro metrics: M.jsonl:1: "),
)


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("hostile")
    hostile_files(directory)
    return directory


@pytest.mark.parametrize("command, prefix", HOSTILE_COMMANDS,
                         ids=[c for c, _p in HOSTILE_COMMANDS])
def test_a_hostile_command_is_one_line_and_exit_2(hostile_dir, command,
                                                  prefix):
    # a child process under a timeout: a traceback, a hang and a wrong
    # answer with exit 0 all fail here
    src = str(Path(repro.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "repro", *command.split()],
        capture_output=True, text=True, timeout=10, cwd=hostile_dir,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr == ""
    (line,) = done.stdout.splitlines()
    assert line.startswith(prefix), line


# -- byte contracts ------------------------------------------------------------

PRETTY_FILES = [ROOT / "BENCH_smoke.json",
                *sorted(CORPUS.glob("*.json"))]


@pytest.mark.parametrize("path", PRETTY_FILES, ids=lambda p: p.name)
def test_committed_documents_are_in_the_pretty_spelling(path):
    text = path.read_text()
    assert doc.pretty(json.loads(text)) == text


def test_there_are_twenty_two_committed_documents():
    assert len(PRETTY_FILES) == 22


def test_a_bundle_round_trips_byte_for_byte(bundle_bytes):
    assert TraceBundle.from_bytes(bundle_bytes).to_bytes() == bundle_bytes


def test_spellings():
    value = {"b": [1, {"d": None, "c": 2.5}], "a": "x"}
    assert doc.compact(value) == '{"a":"x","b":[1,{"c":2.5,"d":null}]}'
    assert doc.pretty({"b": 1, "a": []}) == '{\n  "a": [],\n  "b": 1\n}\n'
    assert doc.jsonl([{"b": 1, "a": 2}, {}]) == '{"a":2,"b":1}\n{}\n'


def test_torn_tail_is_the_caller_visible_difference(tmp_path):
    path = tmp_path / "torn.jsonl"
    path.write_text('{"a":1}\n\n{"b":2}\n{"c":')
    assert [r for _n, r in doc.read_jsonl(path, torn_tail=True)] \
        == [{"a": 1}, {"b": 2}]
    with pytest.raises(doc.DocError, match=r"torn\.jsonl:4: not JSON"):
        list(doc.read_jsonl(path))
    path.write_text('{"a":1}\n{"c":\n{"b":2}\n')  # torn, but not the tail
    with pytest.raises(doc.DocError, match=r"torn\.jsonl:2: not JSON"):
        list(doc.read_jsonl(path, torn_tail=True))


def test_strip_named_copies_and_strip_wall_drops_one_key():
    bench = bench_doc()
    stripped = doc.strip_named(bench, ("wall_clock_s", "jobs"),
                               "points", ("wall_s",))
    assert "wall_clock_s" in bench and "wall_s" in bench["points"][0]
    assert "jobs" not in stripped and "wall_s" not in stripped["points"][0]
    assert doc.strip_wall({"a": 1, "wall": {"t": 2}}) == {"a": 1}


def test_tag_announces_documents_and_jsonl_and_never_raises(tmp_path):
    assert doc.tag(SPEC_FILE) == "repro-workload/1"
    ledger = tmp_path / "l.jsonl"
    ledger.write_text(doc.jsonl(LEDGER))
    assert doc.tag(ledger) == "repro-events/1"
    assert doc.tag(tmp_path / "absent") is None
    ledger.write_bytes(b"\xff\xfe{nope")
    assert doc.tag(ledger) is None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
SHAPES = st.recursive(
    st.sampled_from([str, int, float, bool, dict, list, object, None,
                     (int, float), (str, None)]),
    lambda inner: st.lists(inner, min_size=1, max_size=1)
    | st.dictionaries(
        st.sampled_from(["a", "b?", "*", "schema"]), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES, SHAPES)
@example({"\n": None}, {"a": str, "b?": str, "*": str})
@example({"a": "x", "k\nINJECTED: ok": 3}, {"a": str, "*": str})
def test_check_reports_and_never_raises(value, shape):
    problems = doc.check(value, shape)
    # a key of the checked document is spelled as JSON unless it is a
    # plain token: nothing a hostile file holds can forge a second line
    assert all(isinstance(p, str) and p.isprintable() for p in problems)
    if shape is object:
        assert problems == []
