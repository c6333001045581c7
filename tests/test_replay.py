"""The replay engine beyond the rows of ``tests/test_matrix.py``:

* ``repro-trace/1`` bundles are byte-stable: the same workload recorded
  twice yields identical files, and save/load round-trips exactly;
* variant replays (other policies, slower machines) actually diverge,
  and structurally impossible variants are rejected;
* programs the recorder cannot capture (ports/RPC) and stale kernels
  fail loudly instead of producing a wrong trace;
* the counterfactual scorer's replay delegation agrees with the
  analytic model on the section 4.2 anecdote's ranking.
"""

import json
import struct

import numpy as np
import pytest

from repro.analysis import COUNTER_FIELDS
from repro.bench import TARGETS
from repro.bench.targets import execute_point
from repro.cli import main as cli_main
from repro.profile import (
    AccessProbe,
    ProfileSource,
    compute_attribution,
    page_verdict,
)
from repro.replay import (
    RecordError,
    ReplayError,
    TraceBundle,
    TraceError,
    load_trace,
    record_program,
    record_spec,
    replay_trace,
    save_trace,
)
from repro.replay.bundle import _MAGIC
from repro.runtime import (
    Program,
    Read,
    RemoteService,
    make_kernel,
    run_program,
)
from repro.workloads import GaussianElimination

from tests.conftest import repro_child

SPEC = {
    "kind": "run",
    "workload": "gauss",
    "machine": 4,
    "args": {"n": 16, "n_threads": 2, "verify_result": False},
}


@pytest.fixture(scope="module")
def gauss_recording(recorded):
    return recorded(SPEC)


def test_bundle_shape(gauss_recording):
    bundle, _result = gauss_recording
    assert bundle.n_threads == 2
    assert bundle.n_ops > 0
    assert bundle.config["workload"] == "gauss"
    assert bundle.config["params"]["n_processors"] == 4
    assert len(bundle.layout["threads"]) == 2
    for stream in bundle.streams:
        assert stream.ndim == 2 and stream.shape[1] == 4


# -- byte-stable bundles ------------------------------------------------------


def test_bundle_roundtrip_is_byte_identical(gauss_recording, tmp_path):
    bundle, _result = gauss_recording
    raw = bundle.to_bytes()
    assert TraceBundle.from_bytes(raw).to_bytes() == raw
    path = save_trace(bundle, tmp_path / "gauss.trace")
    assert load_trace(path).to_bytes() == raw


def test_recording_twice_is_byte_identical():
    a, _ = record_spec(dict(SPEC))
    b, _ = record_spec(dict(SPEC))
    assert a.to_bytes() == b.to_bytes()


def test_truncated_bundle_rejected(gauss_recording):
    bundle, _result = gauss_recording
    raw = bundle.to_bytes()
    with pytest.raises(TraceError):
        TraceBundle.from_bytes(raw[:-8])
    with pytest.raises(TraceError):
        TraceBundle.from_bytes(b"NOTATRACE" + raw)
    with pytest.raises(TraceError):
        TraceBundle.from_bytes(raw[: len(raw) // 4])


def test_a_bundle_cut_inside_its_header_says_so(gauss_recording):
    """Cut past the 8-byte header length but inside the header: the
    length check names it, before any parse of the partial header."""
    raw = gauss_recording[0].to_bytes()
    for keep in (8, 9, 40):
        with pytest.raises(TraceError, match="truncated bundle header$"):
            TraceBundle.from_bytes(raw[: len(_MAGIC) + keep])


# -- hostile headers ----------------------------------------------------------


def _rewritten(bundle, path, edit) -> str:
    """``bundle`` saved at ``path`` with its JSON header passed through
    ``edit`` first: a header as a hostile writer could spell it."""
    raw = bundle.to_bytes()
    pos = len(_MAGIC) + 8
    (length,) = struct.unpack_from("<Q", raw, len(_MAGIC))
    header = json.loads(raw[pos: pos + length])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(_MAGIC + struct.pack("<Q", len(text)) + text
                     + raw[pos + length:])
    return str(path)


def _replay_ends_in_one_line(path, capsys, flags=()) -> int:
    """``repro replay`` of ``path`` returns, and a refusal is one
    ``repro replay:`` line with exit 2."""
    code = cli_main(["replay", path, *flags])
    out = capsys.readouterr().out
    if code != 0:
        assert code == 2
        assert out.startswith("repro replay: ") and out.count("\n") == 1
    return code


@pytest.mark.parametrize("dtype", ["<c8", "<i8", "S8", "V8", ">f8",
                                   "<M8[s]"])
def test_a_foreign_stream_dtype_is_refused_in_one_line(
        gauss_recording, tmp_path, capsys, dtype):
    """A header giving its streams a dtype the recorder never writes: a
    non-real one (``<c8``, which the decoder cannot read as an op
    kind) is refused at load, a real one decodes to ops no recording
    holds; either way each mode ends in one line, exit 2."""

    def retype(header):
        for meta in header["streams"]:
            meta["dtype"] = dtype

    path = _rewritten(gauss_recording[0], tmp_path / "d.trace", retype)
    for flags in ([], ["--fast"]):
        assert _replay_ends_in_one_line(path, capsys, flags) == 2


#: one leaf per key of each layout record ``_rebuild_layout`` reads,
#: and each list whose emptying leaves a reference dangling (a binding's
#: object, a thread's address space, a stream's pages and channels)
_LAYOUT_LEAVES = [
    ("objects",), ("aspaces",), ("channels",),
    *(("objects", 0, key) for key in (
        "oid", "label", "n_pages", "cpage_start", "placement")),
    ("objects", 0, "placement", 0),
    ("aspaces", 0, "asid"),
    ("aspaces", 0, "bindings"),
    *(("aspaces", 0, "bindings", 0, key) for key in (
        "vpage_start", "n_pages", "oid", "obj_page_start", "rights")),
    ("channels", 0, "name"),
    ("channels", 0, "base_version"),
    *(("threads", 0, key) for key in ("tid", "asid", "processor", "name")),
]


@pytest.mark.parametrize("leaf", _LAYOUT_LEAVES,
                         ids=lambda leaf: ".".join(map(str, leaf)))
def test_a_mistyped_layout_leaf_is_refused_in_one_line(
        gauss_recording, tmp_path, capsys, leaf):
    """Every JSON type in the wrong place of the layout, an emptied list
    that other records refer to among them, ends ``repro replay`` in
    one line, not in a traceback out of the rebuild or the run, or,
    where the value is a legal one (a null placement), in a replay."""
    for value in (None, 1.5, "x", [], {}, True):

        def mistype(header):
            node = header["layout"]
            for step in leaf[:-1]:
                node = node[step]
            node[leaf[-1]] = value

        path = _rewritten(gauss_recording[0], tmp_path / "l.trace", mistype)
        _replay_ends_in_one_line(path, capsys)


# -- variant replays ----------------------------------------------------------


def test_policy_variant_diverges(gauss_recording):
    bundle, _result = gauss_recording
    never = replay_trace(bundle, policy="never")
    assert int(never.sim_time_ns) != bundle.expected["sim_time_ns"]
    assert never.counters["transfers"] == 0
    assert never.counters["remote_words"] > 0
    always = replay_trace(bundle, policy="always")
    assert always.counters["replications"] >= \
        bundle.expected["counters"]["replications"]


def test_param_variant_diverges(gauss_recording):
    bundle, _result = gauss_recording
    slow = replay_trace(
        bundle,
        params={"t_remote_read": 10000.0, "t_remote_write": 5000.0},
    )
    assert int(slow.sim_time_ns) > bundle.expected["sim_time_ns"]
    # word traffic is a property of the reference string, not of timing
    assert slow.counters["faults"] == \
        bundle.expected["counters"]["faults"]


def test_structural_param_override_rejected(gauss_recording):
    bundle, _result = gauss_recording
    for key in ("page_bytes", "word_bytes", "n_processors"):
        with pytest.raises(ReplayError):
            replay_trace(bundle, params={key: 64})


def test_unknown_policy_rejected(gauss_recording):
    bundle, _result = gauss_recording
    with pytest.raises(ReplayError):
        replay_trace(bundle, policy="nonsense")


def test_zoo_policy_variants_replay(gauss_recording):
    """The new zoo members run as replay variants and diverge where
    they should."""
    bundle, _result = gauss_recording
    adaptive = replay_trace(bundle, policy="adaptive")
    competitive = replay_trace(
        bundle, policy="competitive", policy_args={"buy": 4.0})
    for replay in (adaptive, competitive):
        assert {"sim_time_ns", "queue_delay_ms", *COUNTER_FIELDS} <= \
            set(replay.counters)
    # competitive pays rent before its first buy, so some misses that
    # the recorded freeze policy cached go remote instead
    assert competitive.counters["remote_mappings"] > \
        bundle.expected["counters"]["remote_mappings"]


# -- fast mode (approximate window-at-a-time costing) -------------------------


def test_fast_mode_conserves_reference_string(gauss_recording):
    """Fast mode may approximate *timing*, but the words moved are a
    property of the trace and must be conserved exactly."""
    bundle, _result = gauss_recording
    exp = bundle.expected["counters"]
    fast = replay_trace(bundle, mode="fast")
    assert (fast.counters["local_words"] + fast.counters["remote_words"]
            == exp["local_words"] + exp["remote_words"])
    # protocol events still come from the real fault handler, so the
    # structure stays close to the live run even where timing drifts
    assert fast.counters["faults"] > 0
    assert abs(fast.counters["faults"] - exp["faults"]) \
        <= max(4, exp["faults"] * 0.05)
    assert abs(fast.sim_time_ns - bundle.expected["sim_time_ns"]) \
        <= 0.30 * bundle.expected["sim_time_ns"]


def test_fast_mode_batches_ops(gauss_recording):
    bundle, _result = gauss_recording
    fast = replay_trace(bundle, mode="fast")
    assert fast.windows > 0
    assert fast.batched_ops > fast.windows  # windows hold >1 op on avg
    assert fast.events_executed < bundle.n_ops  # the point of batching


def test_fast_mode_rejects_exact_only_features(gauss_recording):
    bundle, _result = gauss_recording
    for kwargs in (
        {"check_expected": True},
        {"probe": True},
        {"trace": True},
        {"metrics": True},
    ):
        with pytest.raises(ReplayError):
            replay_trace(bundle, mode="fast", **kwargs)
    with pytest.raises(ReplayError):
        replay_trace(bundle, mode="nonsense")


def test_fast_mode_policy_variant_diverges(gauss_recording):
    bundle, _result = gauss_recording
    base = replay_trace(bundle, mode="fast")
    never = replay_trace(bundle, mode="fast", policy="never")
    assert never.counters["transfers"] == 0
    assert never.counters["remote_words"] > base.counters["remote_words"]


# -- recorder failure modes ---------------------------------------------------


class _PortPing(Program):
    """A minimal RPC program: ports are outside the replayable subset."""

    name = "port-ping"

    def setup(self, api):
        self.svc = RemoteService(
            api, home_processor=0, state_words=4,
            handler=self.handler, n_clients=1, label="ping",
        )
        api.spawn(1, self.client, name="client")

    def handler(self, svc, opcode, args):
        value = yield Read(svc.state_va, 1)
        return np.array([int(value[0]) + int(args[0])], dtype=np.int64)

    def client(self, env):
        reply = yield from self.svc.call(0, 1, 7)
        yield from self.svc.stop(0)
        return int(reply[0])


def test_record_rejects_ports():
    kernel = make_kernel(n_processors=2)
    with pytest.raises(RecordError):
        record_program(kernel, _PortPing())


def test_record_rejects_stale_kernel():
    kernel = make_kernel(n_processors=4)
    run_program(kernel, GaussianElimination(
        n=8, n_threads=2, verify_result=False))
    with pytest.raises(RecordError):
        record_program(kernel, GaussianElimination(
            n=8, n_threads=2, verify_result=False))


def test_record_rejects_non_run_specs():
    with pytest.raises(RecordError):
        record_spec({"kind": "table1"})
    with pytest.raises(RecordError):
        record_spec(dict(SPEC, competitive=True))
    with pytest.raises(RecordError):
        record_spec(dict(SPEC, system="sequent"))


# -- counterfactual delegation (section 4.2) ----------------------------------


def test_counterfactual_replay_agrees_with_model_on_sec42():
    """The full-fidelity replay pricing and the analytic cost model
    reach the same verdict on the anecdote's falsely-shared page."""
    program_args = dict(n=24, n_threads=4, verify_result=False,
                        colocate_lock_with_size=True)
    kernel = make_kernel(n_processors=4, trace=True, defrost_period=20e6)
    probe = AccessProbe.install(kernel.coherent)
    result = run_program(kernel, GaussianElimination(**program_args))
    source = ProfileSource.from_run(kernel, result, probe,
                                    workload="sec42")

    rec_kernel = make_kernel(n_processors=4, defrost_period=20e6)
    bundle, rec_result = record_program(
        rec_kernel, GaussianElimination(**program_args),
        config={"workload": "gauss", "defrost_period": 20e6},
    )
    assert int(rec_result.sim_time_ns) == int(result.sim_time_ns)

    top_cpage, _ = compute_attribution(source).top_pages(1)[0]
    model = page_verdict(source, top_cpage)
    replayed = page_verdict(source, top_cpage, trace=bundle)
    assert model["method"] == "model"
    assert replayed["method"] == "replay"
    assert model["recommended"] == "remote_map"
    assert replayed["recommended"] == "remote_map"
    assert replayed["cost_if_remote_ns"] < replayed["cost_if_cache_ns"]


# -- bench integration --------------------------------------------------------


def test_ablation_replay_target_smoke():
    _config, points = TARGETS["ablation_replay"].points("smoke")
    ok = {name: execute_point(spec, seed=0) for name, spec in points}
    derived = TARGETS["ablation_replay"].derive(ok)
    assert derived["replay_matches_live"] is True
    assert set(derived["variant_ms"]) == {
        "recorded", "always", "never", "ace", "freeze-t1=100ms",
        "slow-remote", "fast",
    }
    assert derived["fast_words_conserved"] is True
    assert derived["fast_sim_dev_pct"] < 30.0


# -- command line -------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("repro ")
    assert out.split()[1][0].isdigit()


def test_cli_record_and_replay(capsys, tmp_path):
    trace = tmp_path / "gauss.trace"
    code, out = run_cli(
        capsys, "record", "gauss", "-n", "16", "-p", "2",
        "--machine", "4", "--no-verify", "-o", str(trace),
    )
    assert code == 0
    assert trace.exists()
    assert "recorded" in out

    code, out = run_cli(capsys, "replay", str(trace), "--check")
    assert code == 0
    assert "reproduces the recording run exactly" in out
    assert "post-mortem" in out

    code, out = run_cli(capsys, "replay", str(trace),
                        "--policy", "never", "--rows", "3")
    assert code == 0
    assert "simulated" in out


def test_cli_replay_fast(capsys, gauss_trace):
    code, out = run_cli(capsys, "replay", str(gauss_trace), "--fast")
    assert code == 0
    assert "fast mode:" in out
    assert "windows" in out
    code, out = run_cli(capsys, "replay", str(gauss_trace), "--fast",
                        "--check")
    assert code == 2
    assert "exact" in out


def test_cli_replay_error_paths(capsys, tmp_path, gauss_trace):
    code, out = run_cli(capsys, "replay", str(gauss_trace),
                        "--param", "page_bytes=64")
    assert code == 2
    assert "page_bytes" in out
    code, out = run_cli(capsys, "replay", str(gauss_trace),
                        "--param", "notanumber")
    assert code == 2
    code, out = run_cli(capsys, "replay", str(tmp_path / "missing"))
    assert code == 2


@pytest.fixture(scope="module")
def gauss_trace(tmp_path_factory, recorded):
    """A recorded gauss run saved for ``repro replay``."""
    trace = tmp_path_factory.mktemp("cli") / "gauss.trace"
    return save_trace(recorded({
        "kind": "run", "workload": "gauss", "machine": 4,
        "args": {"n": 12, "n_threads": 2, "verify_result": False},
    })[0], trace)


#: a time or size from the command line is checked once, where it
#: becomes a period or a MachineParams field; each of these used to hang
#: (a daemon rescheduling itself at delay 0), end in a traceback or be
#: silently accepted
BAD_OPTIONS = [
    (("--defrost-period-ms", "0"), "defrost_period"),
    (("--defrost-period-ms", "0.0000001"), "defrost_period"),
    (("--defrost-period-ms", "-5"), "defrost_period"),
    (("--defrost-period-ms", "inf"), "defrost_period"),
    (("--defrost-period-ms", "nan"), "defrost_period"),
    (("--param", "t_local=nan"), "t_local"),
    (("--param", "atc_entries=2.5"), "atc_entries"),
    (("--param", "frames_per_module=100.5"), "frames_per_module"),
]


@pytest.mark.parametrize("options, field", BAD_OPTIONS,
                         ids=[" ".join(o) for o, _f in BAD_OPTIONS])
def test_cli_replay_refuses_a_bad_time_or_size(gauss_trace, options, field):
    done = repro_child("replay", str(gauss_trace), *options)
    assert done.returncode == 2, done.stderr
    assert done.stderr == ""
    (line,) = done.stdout.splitlines()
    assert line.startswith(f"repro replay: {field} must be ")
