"""The five benchmark workloads.

Each workload is prepared once from a seed (specs built, bundles
recorded, cross-check references taken) into a list of *points*; one
timed iteration runs every point through the public function of its
layer and returns the points' simulated statistics as plain data, so
the kernels are garbage by the time the clock stops.  A point raises
when one of its own correctness checks fails.

Why these five, and which layer each one starves, is in
``perf/README.md`` and in the ``why`` lines of ``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from repro import replay
from repro.analysis.costmodel import run_counters
from repro.bench.targets import TARGETS, execute_point
from repro.replay import record_spec
from repro.workloads.generate import bench_spec_for, run_spec
from repro.workloads.spec import PhaseSpec, WorkloadSpec

WORKLOADS = (
    "live-private",
    "live-sharing",
    "replay-exact",
    "replay-fast",
    "paper-suite",
)

#: ops are per thread per phase (two phases, eight threads); the paper
#: points are the ``repro bench --quick`` specs with these sizes put in.
#: ``full`` is sized so an iteration costs 0.3-0.7 CPU s on the 2-core
#: sandbox (see README "Sizes"); ``quick`` is for ``perf/test_perf.py``.
SIZES = {
    "full": {
        "private_ops": 330,
        "sharing_ops": 130,
        "replay_private_ops": 250,
        "replay_sharing_ops": 100,
        "gauss_n": 48,
        "mergesort_n": 4096,
        "neural_epochs": 6,
        "suite_sharing_ops": 100,
    },
    "quick": {
        "private_ops": 40,
        "sharing_ops": 24,
        "replay_private_ops": 20,
        "replay_sharing_ops": 12,
        "gauss_n": 12,
        "mergesort_n": 256,
        "neural_epochs": 1,
        "suite_sharing_ops": 8,
    },
}

#: defrost period of the sharing spec: short enough that pages freeze
#: *and* thaw inside one run, so the defrost daemon does real work
SHARING_DEFROST_NS = 5e6

#: page frames per node of the paper points' machines.  The default
#: 1024 is sized for the paper's 800 x 800 matrices; at these problem
#: sizes allocating them was 31 % of an iteration's CPU time (10 % now),
#: and no module gets near 256: the simulated statistics are identical.
PAPER_FRAMES_PER_NODE = 256

#: policy variants every bundle is replayed under (None = as recorded)
REPLAY_POLICIES = (None, "always", "never")


class CheckFailed(AssertionError):
    """A point's output failed one of the benchmark's cross-checks."""


@dataclass
class Prepared:
    """One workload, ready to iterate."""

    #: simulated thread ops one iteration executes (``TraceBundle.n_ops``
    #: of every point, taken once here)
    n_ops: int
    #: ``(name, run)``: ``run()`` executes the point and returns its stats
    points: list[tuple[str, Callable[[], dict]]]


# -- specs ---------------------------------------------------------------------


def _two_phase(name: str, seed: int, ops: int, **fields) -> WorkloadSpec:
    read = fields.pop("read")
    access = fields.pop("access", "uniform")
    phase = PhaseSpec(
        ops=ops,
        mix={"read": read, "write": round(1.0 - read, 10)},
        access=access,
        compute_ns=200.0,
    )
    return WorkloadSpec(
        name=name, seed=seed, threads=8, machine=8, words_per_op=16,
        phases=(phase, phase), **fields,
    ).validate()


def private_spec(seed: int, ops: int) -> WorkloadSpec:
    """Every thread marches over its own pages: > 99 % of ops hit a
    valid translation, so ``core.*`` idles."""
    return _two_phase("perf-private", seed, ops, sharing="private",
                      pages=64, access="sequential", read=0.7)


def sharing_spec(seed: int, ops: int) -> WorkloadSpec:
    """Every thread draws any of 16 pages, half the ops write: ~40 % of
    ops fault and the whole protocol fires."""
    return _two_phase("perf-sharing", seed, ops, sharing="uniform",
                      pages=16, read=0.5)


def record_point(spec: WorkloadSpec, defrost_period=None) -> dict:
    """The bench point spec ``record_spec`` takes for ``spec``."""
    point = bench_spec_for(spec)
    if defrost_period is not None:
        point["defrost_period"] = defrost_period
    return point


def _stats(sim_time_ns: int, counters: dict, **extra) -> dict:
    return {
        "sim_time_ns": int(sim_time_ns),
        "words": counters["local_words"] + counters["remote_words"],
        "counters": counters,
        **extra,
    }


# -- live ----------------------------------------------------------------------


def _prepare_live(spec: WorkloadSpec, defrost_period=None) -> Prepared:
    bundle, _result = record_spec(record_point(spec, defrost_period))
    want_ns = bundle.expected["sim_time_ns"]

    def run() -> dict:
        # run_program verifies the program's results and the protocol
        # invariants before it returns
        _kernel, result = run_spec(spec, defrost_period=defrost_period)
        if result.sim_time_ns != want_ns:
            raise CheckFailed(
                f"{spec.name}: live run took {result.sim_time_ns} ns, "
                f"the recording run {want_ns} ns")
        return _stats(result.sim_time_ns, run_counters(result))

    return Prepared(n_ops=bundle.n_ops, points=[(spec.name, run)])


# -- replay --------------------------------------------------------------------


def _replay_stats(bundle, mode: str, policy, check_expected=False) -> dict:
    # looked up on the package at call time, where the traced pass
    # wraps it
    result = replay.replay_trace(bundle, mode=mode, policy=policy,
                                 check_expected=check_expected)
    extra = {"events": result.events_executed}
    if mode == "fast":
        extra["windows"] = result.windows
        extra["batched_ops"] = result.batched_ops
    return _stats(result.sim_time_ns, result.counters, **extra)


def _prepare_replay(seed: int, size: dict, mode: str) -> Prepared:
    bundles = [
        record_spec(record_point(
            private_spec(seed, size["replay_private_ops"])))[0],
        record_spec(record_point(
            sharing_spec(seed, size["replay_sharing_ops"]),
            SHARING_DEFROST_NS))[0],
    ]
    other = "fast" if mode == "exact" else "exact"
    points = []
    for bundle in bundles:
        for policy in REPLAY_POLICIES:
            # the two modes cost time differently but must move the same
            # words: the other mode's total is this point's reference
            want_words = _replay_stats(bundle, other, policy)["words"]
            name = f"{bundle.config['args']['spec']['name']}" \
                   f":{policy or 'recorded'}"
            points.append((name, _replay_point(
                bundle, mode, policy, want_words, name)))
    return Prepared(
        n_ops=sum(b.n_ops for b in bundles) * len(REPLAY_POLICIES),
        points=points,
    )


def _replay_point(bundle, mode, policy, want_words, name):
    # the recorded leg of exact replay is the live == replay check
    check_expected = mode == "exact" and policy is None

    def run() -> dict:
        stats = _replay_stats(bundle, mode, policy, check_expected)
        if stats["words"] != want_words:
            raise CheckFailed(
                f"{name}: {mode} replay moved {stats['words']} words, "
                f"the other mode {want_words}")
        return stats

    return run


# -- the paper's programs --------------------------------------------------------


def paper_points(seed: int, size: dict) -> list[tuple[str, dict]]:
    """Five quick-scale bench points, shrunk to ``size`` and seeded, and
    the sharing spec as a ``generated`` bench point: the paper programs'
    simulated time does not depend on their input data, so without it
    nothing this workload simulates would depend on the seed."""

    def point(target: str, name: str, **args) -> tuple[str, dict]:
        spec = copy.deepcopy(dict(TARGETS[target].points("quick")[1])[name])
        spec["args"].update(args, seed=seed)
        spec["params"] = {"frames_per_module": PAPER_FRAMES_PER_NODE}
        return f"{target}:{name}", spec

    return [
        point("fig1_gauss", "p=4", n=size["gauss_n"]),
        point("fig1_gauss", "p=16", n=size["gauss_n"]),
        point("fig5_mergesort", "platinum p=8", n=size["mergesort_n"]),
        point("fig6_neural", "p=4", epochs=size["neural_epochs"]),
        point("sec42_anecdote", "colocated+defrost", n=size["gauss_n"]),
        ("generated:perf-sharing", record_point(
            sharing_spec(seed, size["suite_sharing_ops"]),
            SHARING_DEFROST_NS)),
    ]


def _prepare_paper(seed: int, size: dict) -> Prepared:
    specs = paper_points(seed, size)

    def make(spec: dict) -> Callable[[], dict]:
        def run() -> dict:
            metrics = execute_point(spec, seed)
            return _stats(metrics["sim_time_ns"], metrics)
        return run

    # recording ignores the telemetry/profile keys of a bench point: it
    # is only how the op count of the iteration is taken
    n_ops = 0
    for _name, spec in specs:
        n_ops += record_spec(spec)[0].n_ops
        # a 16-node kernel holds 64 MiB of frames: drop each recording
        # kernel before the next is built, or set-up sets the peak RSS
        gc.collect()
    return Prepared(n_ops=n_ops,
                    points=[(name, make(spec)) for name, spec in specs])


# -- entry points ----------------------------------------------------------------


def prepare(workload: str, seed: int, size: dict,
            inject_failure: bool = False) -> Prepared:
    """Build ``workload`` from ``seed``: the program under test receives
    only the generated specs."""
    if workload == "live-private":
        prepared = _prepare_live(private_spec(seed, size["private_ops"]))
    elif workload == "live-sharing":
        prepared = _prepare_live(
            sharing_spec(seed, size["sharing_ops"]), SHARING_DEFROST_NS)
    elif workload == "replay-exact":
        prepared = _prepare_replay(seed, size, "exact")
    elif workload == "replay-fast":
        prepared = _prepare_replay(seed, size, "fast")
    elif workload == "paper-suite":
        prepared = _prepare_paper(seed, size)
    else:
        raise ValueError(
            f"unknown workload {workload!r} (want one of "
            f"{', '.join(WORKLOADS)})")
    if inject_failure:
        # the sweep runner's own always-raising self-test point
        prepared.points.append(
            ("injected-failure",
             lambda: execute_point({"kind": "fail"}, seed)))
    return prepared


def run_iteration(prepared: Prepared) -> dict:
    """Run every point once; returns ``{point name: stats}``."""
    return {name: run() for name, run in prepared.points}


def sim_time_ms(stats: dict) -> float:
    """Simulated completion time summed over an iteration's points."""
    return sum(p["sim_time_ns"] for p in stats.values()) / 1e6


def fingerprint(stats: dict) -> str:
    """sha256 of the canonical simulated statistics of one iteration."""
    canonical = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
