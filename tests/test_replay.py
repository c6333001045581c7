"""A/B determinism tests for the trace-driven replay engine.

The load-bearing properties:

* recording is non-invasive -- a recorded run produces exactly the
  metrics of a plain run of the same spec;
* a replay under the recording configuration reproduces the live run's
  final simulated time, executed-event count and every protocol counter
  exactly, for every recordable smoke point of every benchmark target;
* ``repro-trace/1`` bundles are byte-stable: the same workload recorded
  twice yields identical files, and save/load round-trips exactly;
* variant replays (other policies, slower machines) actually diverge,
  and structurally impossible variants are rejected;
* programs the recorder cannot capture (ports/RPC) and stale kernels
  fail loudly instead of producing a wrong trace;
* the counterfactual scorer's replay delegation agrees with the
  analytic model on the section 4.2 anecdote's ranking.
"""

import numpy as np
import pytest

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

SPEC = {
    "kind": "run",
    "workload": "gauss",
    "machine": 4,
    "args": {"n": 16, "n_threads": 2, "verify_result": False},
}

#: the counter keys a replay must reproduce exactly
COUNTER_KEYS = (
    "sim_time_ns", "faults", "read_faults", "write_faults",
    "replications", "migrations", "invalidations", "remote_mappings",
    "freezes", "local_words", "remote_words", "queue_delay_ms",
    "transfers", "shootdowns", "ipis",
)


@pytest.fixture(scope="module")
def gauss_recording():
    return record_spec(dict(SPEC))


# -- recording is non-invasive ------------------------------------------------


def test_record_run_matches_plain_run(gauss_recording):
    """The recording hooks must not perturb the simulation: a recorded
    run and a plain run of the same spec agree on every metric."""
    bundle, result = gauss_recording
    live = execute_point(dict(SPEC), seed=0)
    assert int(result.sim_time_ns) == live["sim_time_ns"]
    for key in COUNTER_KEYS:
        assert bundle.expected["counters"][key] == live[key], key


def test_bundle_shape(gauss_recording):
    bundle, _result = gauss_recording
    assert bundle.n_threads == 2
    assert bundle.n_ops > 0
    assert bundle.config["workload"] == "gauss"
    assert bundle.config["params"]["n_processors"] == 4
    assert len(bundle.layout["threads"]) == 2
    for stream in bundle.streams:
        assert stream.ndim == 2 and stream.shape[1] == 4


# -- exact A/B replay ---------------------------------------------------------


def test_replay_reproduces_recording_exactly(gauss_recording):
    bundle, _result = gauss_recording
    replay = replay_trace(bundle, check_expected=True)
    assert int(replay.sim_time_ns) == bundle.expected["sim_time_ns"]
    assert replay.events_executed == bundle.expected["events_executed"]
    for key in COUNTER_KEYS:
        assert replay.counters[key] == bundle.expected["counters"][key]


def test_replay_is_deterministic(gauss_recording):
    bundle, _result = gauss_recording
    a = replay_trace(bundle)
    b = replay_trace(bundle)
    assert a.counters == b.counters
    assert a.events_executed == b.events_executed


def _recordable_smoke_points(target_name):
    _config, points = TARGETS[target_name].points("smoke")
    recordable = []
    for name, spec in points:
        if spec.get("kind", "run") != "run":
            continue
        if spec.get("system", "platinum") != "platinum":
            continue
        if spec.get("competitive"):
            continue
        recordable.append((name, spec))
    return recordable


@pytest.mark.parametrize("target_name", sorted(TARGETS))
def test_replay_matches_live_on_bench_smoke_points(target_name):
    """Every recordable smoke point of every benchmark target replays
    to the recording run's exact final state."""
    points = _recordable_smoke_points(target_name)
    if not points:
        pytest.skip("no recordable run points in this target")
    for name, spec in points:
        bundle, result = record_spec(spec)
        # check_expected asserts sim time, event count and all counters
        replay = replay_trace(bundle, check_expected=True)
        assert int(replay.sim_time_ns) == int(result.sim_time_ns), name


# -- generated workloads ------------------------------------------------------


def test_generated_workload_record_then_check(generated_workload):
    """The cross-suite guarantee: a generated program records, and the
    replay reproduces the recording's exact final state (sim time,
    event count, every protocol counter)."""
    from repro.workloads import bench_spec_for

    spec, _make_program = generated_workload
    bundle, result = record_spec(bench_spec_for(spec))
    replay = replay_trace(bundle, check_expected=True)
    assert int(replay.sim_time_ns) == int(result.sim_time_ns)
    for key in COUNTER_KEYS:
        assert replay.counters[key] == bundle.expected["counters"][key]


def test_generated_workload_record_is_noninvasive(generated_workload):
    """Recording a generated program must not perturb it: the recorded
    run's counters equal a plain run's."""
    from repro.analysis import run_counters
    from repro.runtime import run_program as run_prog
    from repro.workloads import bench_spec_for

    spec, make_program = generated_workload
    bundle, _result = record_spec(bench_spec_for(spec))
    kernel = make_kernel(n_processors=spec.machine)
    plain = run_prog(kernel, make_program())
    assert bundle.expected["counters"] == run_counters(plain)


def test_generated_workload_cli_record_check_cycle(
        generated_workload, tmp_path, capsys):
    """`record` -> `repro replay --check` through an on-disk bundle."""
    from repro.workloads import bench_spec_for

    spec, _make_program = generated_workload
    bundle, _result = record_spec(bench_spec_for(spec))
    path = save_trace(bundle, tmp_path / "gen.trace")
    assert cli_main(["replay", str(path), "--check"]) == 0
    assert "reproduces the recording" in capsys.readouterr().out


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
        for key in COUNTER_KEYS:
            assert key in replay.counters
    # competitive pays rent before its first buy, so some misses that
    # the recorded freeze policy cached go remote instead
    assert competitive.counters["remote_mappings"] > \
        bundle.expected["counters"]["remote_mappings"]


# -- differential replay under the policy zoo ---------------------------------


def _corpus_specs():
    from pathlib import Path

    from repro.workloads import WorkloadSpec
    from repro.workloads.generate import corpus_paths

    corpus = Path(__file__).parent / "corpus"
    return [WorkloadSpec.load(p) for p in corpus_paths(corpus)]


@pytest.mark.parametrize("spec", _corpus_specs(), ids=lambda s: s.name)
def test_replay_adaptive_variant_agrees_with_live_run(spec):
    """The differential contract behind `repro replay --policy X`: a
    variant replay of a recorded trace is the *same simulation* as a
    live run under policy X -- identical simulated time and identical
    protocol counters -- for every golden-corpus spec.  The adaptive
    policy refines the recorded policy's decisions without perturbing
    the workloads' synchronization structure, so the replayer's
    exactness contract extends to the live comparison."""
    from repro.analysis import run_counters
    from repro.workloads import bench_spec_for
    from repro.workloads.generate import run_spec

    bundle, _result = record_spec(bench_spec_for(spec))
    replayed = replay_trace(bundle, policy="adaptive")
    _kernel, live = run_spec(spec, policy="adaptive")
    live_counters = run_counters(live)
    assert int(replayed.sim_time_ns) == int(live.sim_time_ns), (
        f"{spec.name}: replay under 'adaptive' diverged from the "
        "live run")
    for key in COUNTER_KEYS:
        assert replayed.counters[key] == live_counters[key], (
            spec.name, key)


#: counters fully determined by the reference string and the policy --
#: they must survive a live comparison even when timing shifts
_STRUCTURAL_KEYS = (
    "faults", "read_faults", "write_faults", "replications",
    "migrations", "invalidations", "remote_mappings", "freezes",
    "local_words", "remote_words", "transfers", "shootdowns", "ipis",
)


@pytest.mark.parametrize("policy", ("competitive", "never"))
@pytest.mark.parametrize("spec", _corpus_specs(), ids=lambda s: s.name)
def test_replay_variant_matches_live_protocol_structure(spec, policy):
    """For variants that *do* shift timing (never-cache and rent-or-buy
    turn cached accesses remote), the replayer holds the recorded
    reference string fixed while a live run's spin/queueing behaviour
    may drift.  The protocol structure is still determined by the
    reference string and the policy alone, so every structural counter
    must agree with the live run exactly; only time-derived metrics may
    deviate, and then only slightly."""
    from repro.analysis import run_counters
    from repro.workloads import bench_spec_for
    from repro.workloads.generate import run_spec

    bundle, _result = record_spec(bench_spec_for(spec))
    replayed = replay_trace(bundle, policy=policy)
    _kernel, live = run_spec(spec, policy=policy)
    live_counters = run_counters(live)
    for key in _STRUCTURAL_KEYS:
        assert replayed.counters[key] == live_counters[key], (
            spec.name, policy, key)
    assert abs(replayed.sim_time_ns - live.sim_time_ns) \
        <= 0.05 * live.sim_time_ns


# -- fast mode (approximate window-at-a-time costing) -------------------------


def test_fast_mode_is_deterministic(gauss_recording):
    bundle, _result = gauss_recording
    a = replay_trace(bundle, mode="fast")
    b = replay_trace(bundle, mode="fast")
    assert a.counters == b.counters
    assert a.sim_time_ns == b.sim_time_ns
    assert a.mode == "fast"
    assert a.batched_ops == b.batched_ops


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


def test_fast_replay_point_kind():
    metrics = execute_point(
        {"kind": "replay", "record": dict(SPEC), "mode": "fast"},
        seed=0,
    )
    assert metrics["batched_ops"] > 0
    assert metrics["windows"] > 0
    live = execute_point(dict(SPEC), seed=0)
    assert (metrics["local_words"] + metrics["remote_words"]
            == live["local_words"] + live["remote_words"])


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


def test_replay_point_kind():
    metrics = execute_point(
        {"kind": "replay", "record": dict(SPEC), "check_expected": True},
        seed=0,
    )
    live = execute_point(dict(SPEC), seed=0)
    for key in COUNTER_KEYS:
        assert metrics[key] == live[key], key
    assert metrics["trace_threads"] == 2
    assert metrics["trace_ops"] > 0


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


def test_cli_replay_fast(capsys, tmp_path):
    trace = tmp_path / "gauss.trace"
    run_cli(capsys, "record", "gauss", "-n", "16", "-p", "2",
            "--machine", "4", "--no-verify", "-o", str(trace))
    code, out = run_cli(capsys, "replay", str(trace), "--fast")
    assert code == 0
    assert "fast mode:" in out
    assert "windows" in out
    code, out = run_cli(capsys, "replay", str(trace), "--fast", "--check")
    assert code == 2
    assert "exact" in out


def test_cli_replay_error_paths(capsys, tmp_path):
    trace = tmp_path / "gauss.trace"
    run_cli(capsys, "record", "gauss", "-n", "16", "-p", "2",
            "--machine", "4", "--no-verify", "-o", str(trace))
    code, out = run_cli(capsys, "replay", str(trace),
                        "--param", "page_bytes=64")
    assert code == 2
    assert "page_bytes" in out
    code, out = run_cli(capsys, "replay", str(trace),
                        "--param", "notanumber")
    assert code == 2
    code, out = run_cli(capsys, "replay", str(tmp_path / "missing"))
    assert code == 2


@pytest.fixture(scope="module")
def gauss_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("bad-options") / "gauss.trace"
    bundle, _result = record_spec({
        "kind": "run", "workload": "gauss", "machine": 4,
        "args": {"n": 12, "n_threads": 2, "verify_result": False},
    })
    save_trace(bundle, trace)
    return trace


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
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    # a child process, so that a hang is a failure here and not a stuck
    # suite
    src = str(Path(repro.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "repro", "replay", str(gauss_trace),
         *options],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr == ""
    (line,) = done.stdout.splitlines()
    assert line.startswith(f"repro replay: {field} must be ")
