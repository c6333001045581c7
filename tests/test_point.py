"""Tests for ``repro.point``: the one spec -> kernel/program builder,
and the agreement of everything that lowers to it (the CLI verbs, the
bench executor, the recorder and the replayer)."""

import dataclasses

import pytest

from repro.bench.targets import TARGETS, execute_point
from repro.cli import main
from repro.obs import iter_spans, read_ledger
from repro.point import point_kernel, point_program, sec42_spec
from repro.policy.fixed import TimestampFreezePolicy
from repro.replay import record_spec, replay_trace, save_trace
from repro.workloads import bench_spec_for, generate_spec

# -- (a) every bench point builds through the module --------------------------

_BENCH_POINTS = [
    pytest.param(spec, id=f"{target.name}::{name}")
    for target in TARGETS.values()
    for name, spec in target.points("smoke")[1]
    if spec["kind"] in ("run", "transitions", "sequent")
]


@pytest.mark.parametrize("spec", _BENCH_POINTS)
def test_every_bench_point_builds(spec):
    program = point_program(spec)
    assert callable(program.setup)
    if spec["kind"] != "sequent":  # the UMA baseline has no Kernel
        kernel = point_kernel(spec)
        assert kernel.params.n_processors == spec["machine"]


def test_bench_points_cover_every_system_and_kind():
    specs = [p.values[0] for p in _BENCH_POINTS]
    assert {s["kind"] for s in specs} == {"run", "transitions", "sequent"}
    assert {s.get("system", "platinum") for s in specs} \
        == {"platinum", "uniform", "smp"}
    assert any(s.get("competitive") for s in specs)


# -- (b) CLI == bench == record == replay -------------------------------------

#: workload -> (CLI flags, the args those flags lower to)
_FIVE = {
    "gauss": (["-n", "12"], {"n": 12, "verify_result": True}),
    "mergesort": (["-n", "128"], {"n": 128, "verify_result": True}),
    "neural": (["--epochs", "2"], {"epochs": 2}),
    "jacobi": (["-n", "8", "--epochs", "2"],
               {"n": 8, "iterations": 2, "verify_result": True}),
    "matmul": (["-n", "8"], {"n": 8, "verify_result": True}),
}


@pytest.mark.parametrize("workload", sorted(_FIVE))
def test_cli_bench_record_replay_agree(workload, tmp_path, capsys):
    flags, args = _FIVE[workload]
    spec = {"kind": "run", "workload": workload, "machine": 4,
            "args": {**args, "n_threads": 2}}
    ledger = tmp_path / "run.jsonl"
    assert main(["--ledger", str(ledger), workload, *flags,
                 "-p", "2", "--machine", "4"]) == 0
    capsys.readouterr()
    (span,) = [s for s in iter_spans(read_ledger(ledger))
               if s["name"] == "run.simulate"]
    # the span carries sim time in ms rounded to 6 places: exact ns
    cli_ns = round(span["attrs"]["sim_time_ms"] * 1e6)
    bench_ns = execute_point(spec, seed=0)["sim_time_ns"]
    bundle, _result = record_spec(spec)
    replay_ns = replay_trace(bundle, check_expected=True).sim_time_ns
    assert cli_ns == bench_ns == bundle.expected["sim_time_ns"] == replay_ns


# -- (c) a bundle's config is itself a point spec -----------------------------


@pytest.mark.parametrize("extra", [
    {},
    {"policy": "adaptive", "defrost_period": 5e6},
    {"policy": "freeze", "policy_args": {"t1": 5e6}, "defrost": False,
     "params": {"t_remote_read": 9000.0}},
])
def test_bundle_config_round_trips_through_point_kernel(extra):
    spec = {"kind": "run", "workload": "gauss", "machine": 4,
            "args": {"n": 12, "n_threads": 2}, **extra}
    bundle, result = record_spec(spec)
    again = point_kernel(bundle.config)
    assert dataclasses.asdict(again.params) == bundle.config["params"] \
        == dataclasses.asdict(result.kernel.params)
    assert again.policy.name == result.kernel.policy.name
    assert again.coherent.defrost.enabled \
        == result.kernel.coherent.defrost.enabled


# -- (d) every rejection is a one-line ValueError -----------------------------

_GAUSS = {"workload": "gauss", "machine": 2,
          "args": {"n": 8, "n_threads": 2}}


@pytest.mark.parametrize("build,spec,match", [
    (point_program, {}, "unknown workload None"),
    (point_program, {"workload": "warp"}, "unknown workload 'warp'"),
    (point_program, {"system": "smp", "workload": "mergesort"},
     "unknown workload 'mergesort' for system 'smp'"),
    (point_program, dict(_GAUSS, system="vax"), "unknown system 'vax'"),
    (point_kernel, dict(_GAUSS, system="vax"), "unknown system 'vax'"),
    (point_kernel, dict(_GAUSS, policy="warp"), "unknown policy 'warp'"),
    (point_kernel, dict(_GAUSS, policy="always", policy_args={"t1": 1}),
     "policy 'always': bad arguments"),
    (point_kernel, dict(_GAUSS, policy_args={"bogus": 1}),
     "policy 'freeze': bad arguments"),
    (point_kernel, dict(_GAUSS, params={"warp_factor": 9}),
     "unknown machine parameter warp_factor"),
    (point_kernel, dict(_GAUSS, params={"page_bytes": 1001}),
     "whole number of words"),
    (point_kernel, dict(_GAUSS, machine=0), "at least one processor"),
    (point_program, dict(_GAUSS, args={"n": 8, "bogus": 1}),
     "workload 'gauss': bad arguments"),
    (point_program, dict(_GAUSS, args={"n": 1}), "at least 2x2"),
    (point_program, {"workload": "generated", "args": {"spec": {}}},
     "spec"),
])
def test_bad_specs_are_one_line_value_errors(build, spec, match):
    with pytest.raises(ValueError, match=match) as info:
        build(spec)
    assert "\n" not in str(info.value)


# -- policy args without a policy name (bug: silently dropped) ----------------


def test_policy_args_alone_configure_the_default_freeze_policy():
    policy = point_kernel(dict(_GAUSS, policy_args={"t1": 5e6})).policy
    assert isinstance(policy, TimestampFreezePolicy) and policy.t1 == 5e6
    point = bench_spec_for(generate_spec(102, "smoke"),
                           policy_args={"t1": 5e6})
    assert point["policy_args"] == {"t1": 5e6} and "policy" not in point
    assert point_kernel(point).policy.t1 == 5e6


def test_replay_policy_args_alone_reconfigure_the_recorded_policy():
    bundle, _result = record_spec(_GAUSS)
    assert bundle.config["policy"] is None  # bytes of old bundles stand
    assert replay_trace(
        bundle, policy_args={"t1": 5e6}).kernel.policy.t1 == 5e6
    adaptive, _result = record_spec(dict(_GAUSS, policy="adaptive"))
    assert replay_trace(adaptive, policy_args={"t1": 5e6}) \
        .kernel.policy.name.startswith("adaptive(t1=5ms")


def test_sec42_spec_is_the_one_anecdote_definition():
    bench = dict(TARGETS["sec42_anecdote"].points("smoke")[1])
    spec = bench["colocated+defrost"]
    anecdote = sec42_spec(24, machine=4, threads=4)
    assert {k: spec[k] for k in anecdote} == anecdote
    assert bench["separate+nodefrost"]["args"]["colocate_lock_with_size"] \
        is False


# -- (e) the CLI maps every spec problem to one line, exit 2 ------------------


@pytest.fixture(scope="module")
def gauss_trace(tmp_path_factory):
    bundle, _result = record_spec(_GAUSS)
    return str(save_trace(
        bundle, tmp_path_factory.mktemp("point") / "gauss.trace"))


def _one_line_exit_2(capsys, argv, verb):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 1, captured.out
    assert captured.out.startswith(f"repro {verb}: ")
    return captured.out


@pytest.mark.parametrize("argv", [
    ["gauss", "-n", "16", "-p", "2"],
    ["record", "gauss", "-n", "16", "-p", "2"],
    ["gen", "run", "--seed", "102"],
    ["replay", "TRACE"],
], ids=lambda argv: argv[0])
def test_malformed_policy_args_without_policy_exit_2(
        argv, capsys, gauss_trace, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # `record` must not get to write a bundle
    argv = [gauss_trace if a == "TRACE" else a for a in argv]
    out = _one_line_exit_2(
        capsys, [*argv, "--policy-args", "not json"], argv[0])
    assert "--policy-args is not JSON" in out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["gauss", "-n", "16", "-p", "2", "--machine", "4"],
    ["record", "gauss", "-n", "16", "-p", "2", "--machine", "4",
     "-o", "out.trace"],
    ["gen", "run", "--seed", "102"],
    ["replay", "TRACE"],
], ids=lambda argv: argv[0])
def test_policy_args_without_policy_are_applied(
        argv, capsys, gauss_trace, tmp_path, monkeypatch):
    """An argument only the freeze policy rejects proves the args
    reached a freeze policy instead of being dropped."""
    monkeypatch.chdir(tmp_path)
    argv = [gauss_trace if a == "TRACE" else a for a in argv]
    assert main([*argv, "--policy-args", '{"t1": 5e6}']) == 0
    capsys.readouterr()
    out = _one_line_exit_2(
        capsys, [*argv, "--policy-args", '{"bogus": 1}'], argv[0])
    assert "policy 'freeze': bad arguments" in out


@pytest.mark.parametrize("argv", [
    ["gauss", "-n", "0"],
    ["gauss", "--machine", "0"],
    ["explain", "gauss", "-n", "1"],
    ["metrics", "gauss", "-n", "0"],
    ["dashboard", "gauss", "-n", "0"],
    ["speedup", "gauss", "-n", "0"],
    ["speedup", "gauss", "-n", "16", "--counts", "1,x"],
    ["doctor", "sec42", "-n", "1"],
    ["compare", "-n", "1"],
    ["compare", "--machine", "1"],
    ["check", "invariants", "--machine", "0"],
    ["check", "conformance", "--machine", "0"],
    ["record", "gauss", "--machine", "0"],
], ids=" ".join)
def test_bad_workload_or_machine_parameters_exit_2(argv, capsys):
    _one_line_exit_2(capsys, argv, argv[0])


def test_a_crash_inside_the_simulation_is_still_a_crash(monkeypatch):
    """The exit-2 mapping wraps point building only: a ValueError out
    of the running program must not be dressed up as a usage error."""
    from repro.workloads import GaussianElimination

    def boom(self, api):
        raise ValueError("simulated defect")

    monkeypatch.setattr(GaussianElimination, "setup", boom)
    with pytest.raises(ValueError, match="simulated defect"):
        main(["gauss", "-n", "8", "-p", "2", "--machine", "2"])
