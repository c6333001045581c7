"""The benchmark target registry: every figure, table and ablation as a
sweep of picklable point specs.

Each target mirrors one ``benchmarks/bench_*.py`` file.  A target knows
how to expand itself into a list of ``(name, spec)`` points at a given
*scale* (``smoke`` for tests, ``quick`` for CI, ``full`` for the paper's
problem sizes) and how to reduce the finished points' metrics into the
``derived`` section of its ``BENCH_<target>.json`` document.

Point specs are plain dicts with a ``"kind"`` key so they can cross a
``multiprocessing`` boundary; :func:`execute_point` is the single
dispatcher the sweep workers call.  Everything a point does is a
deterministic simulation, so executing the same spec twice -- in this
process, a worker process, serially or in parallel -- produces identical
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..analysis.costmodel import (
    MigrationCostModel,
    TABLE1_GS,
    TABLE1_PUBLISHED,
    TABLE1_RHOS,
    run_counters,
)
from ..analysis.speedup import SpeedupCurve
from ..baselines import run_on_sequent
from ..point import point_kernel, point_program, sec42_spec
from ..runtime import run_program


# -- point execution ----------------------------------------------------------


def _exec_run(spec: dict, seed: int) -> dict:
    """A full simulated program run, reduced to its counter dict."""
    plain = spec.get("system", "platinum") == "platinum"
    # telemetry only reads protocol state, so its summary is as
    # deterministic as the counters; spec {"telemetry": False} opts out
    telemetry = spec.get("telemetry", True) and plain
    # {"profile": K} embeds a top-K cost-attribution summary; the
    # profiler needs the tracer and the access probe, so it is only
    # meaningful on plain platinum kernels
    profile = (
        int(spec.get("profile", 0))
        if plain and not spec.get("competitive")
        else 0
    )
    kernel = point_kernel(spec, metrics=telemetry, trace=profile > 0)
    program = point_program(spec)
    probe = None
    if profile:
        from ..profile import AccessProbe

        probe = AccessProbe.install(kernel.coherent)
    result = run_program(kernel, program)
    metrics = run_counters(result)
    metrics["sim_time_ms"] = result.sim_time_ms
    if telemetry:
        metrics["telemetry"] = kernel.metrics.summary()
    if probe is not None:
        from ..profile import ProfileSource, attribution_summary

        source = ProfileSource.from_run(
            kernel, result, probe, workload=spec.get("workload", "")
        )
        metrics["profile"] = attribution_summary(source, top=profile)
    for prefix in spec.get("page_detail", ()):
        rows = [
            r for r in result.report.rows if r.label.startswith(prefix)
        ]
        metrics[f"pages[{prefix}]"] = {
            "count": len(rows),
            "faults": sum(r.faults for r in rows),
            "frozen": sum(1 for r in rows if r.frozen),
            "was_frozen": sum(1 for r in rows if r.was_frozen),
        }
    return metrics


#: per-process memo of recorded trace bundles, keyed by the canonical
#: JSON of the recording spec.  The sweep's worker pool is persistent, so
#: each worker records a workload at most once and replays every variant
#: point against the in-memory bundle -- no paths in specs, no files, and
#: the metrics stay byte-deterministic for the snapshot drift check.
_RECORD_MEMO: dict[str, object] = {}


def _recorded_bundle(record_spec_dict: dict):
    from ..doc import compact
    from ..replay import record_spec

    key = compact(record_spec_dict)
    bundle = _RECORD_MEMO.get(key)
    if bundle is None:
        bundle, _result = record_spec(record_spec_dict)
        _RECORD_MEMO[key] = bundle
    return bundle


def _exec_replay(spec: dict, seed: int) -> dict:
    """Record once (memoized per worker), then re-simulate the trace
    under the point's policy/parameter variant."""
    from ..replay import replay_trace

    bundle = _recorded_bundle(spec["record"])
    result = replay_trace(
        bundle,
        policy=spec.get("policy"),
        policy_args=spec.get("policy_args"),
        defrost=spec.get("defrost"),
        defrost_period=spec.get("defrost_period"),
        params=spec.get("params"),
        check_expected=bool(spec.get("check_expected")),
        mode=spec.get("mode", "exact"),
    )
    metrics = dict(result.counters)
    metrics["sim_time_ms"] = result.sim_time_ms
    metrics["events_executed"] = result.events_executed
    metrics["trace_ops"] = bundle.n_ops
    metrics["trace_threads"] = bundle.n_threads
    if result.mode == "fast":
        metrics["batched_ops"] = result.batched_ops
        metrics["windows"] = result.windows
    return metrics


def _exec_sequent(spec: dict, seed: int) -> dict:
    """The UMA (Sequent-like) baseline run: wall model only, no
    coherence counters exist on that machine."""
    result = run_on_sequent(
        point_program(spec), n_processors=spec.get("machine", 16))
    return {
        "sim_time_ns": int(result.sim_time_ns),
        "sim_time_ms": result.sim_time_ns / 1e6,
    }


def _exec_table1(spec: dict, seed: int) -> dict:
    """Regenerate Table 1 from the analytic model and diff it against
    the published table."""
    model = MigrationCostModel.paper_constants()
    table = model.table1()
    cells = 0
    mismatches = 0
    rendered: dict[str, list] = {}
    for rho in TABLE1_RHOS:
        rendered[str(rho)] = list(table[rho])
        for got, want in zip(table[rho], TABLE1_PUBLISHED[rho]):
            cells += 1
            # 3% tolerance, as in bench_tab1_costmodel: the published
            # rho=0.48, g=1 cell is ~2.5% off the paper's own formula
            if want is None or got is None:
                mismatches += got is not want and got != want
            elif abs(got - want) > max(1, 0.03 * want):
                mismatches += 1
    return {
        "cells": cells,
        "mismatches": mismatches,
        "gs": list(TABLE1_GS),
        "density_coefficient": model.density_coefficient,
        "numerator_coefficient": model.numerator_coefficient,
        "table": rendered,
    }


def _exec_transitions(spec: dict, seed: int) -> dict:
    """A traced run replayed against the Figure 4 transition table."""
    from ..check import check_trace

    kernel = point_kernel(spec, trace=True)
    run_program(kernel, point_program(spec))
    report = check_trace(kernel.tracer)
    return {
        "ok": report.ok,
        "n_events": report.n_events,
        "n_faults": report.n_faults,
        "divergence": None if report.ok else report.divergence.describe(),
    }


def _exec_micro(spec: dict, seed: int) -> dict:
    """The section 4 microbenchmark battery, in milliseconds."""
    from ..workloads import (
        measure_page_copy,
        measure_read_miss_clean,
        measure_read_miss_modified,
        measure_remote_map_write,
        measure_shootdown_increment,
        measure_upgrade_write,
        measure_write_miss_present_plus,
    )

    ms = 1e6
    costs = measure_shootdown_increment(8)
    return {
        "page_copy_ms": measure_page_copy() / ms,
        "read_miss_clean_ms": measure_read_miss_clean(True) / ms,
        "read_miss_modified_ms": measure_read_miss_modified(True) / ms,
        "write_miss_present_plus_ms":
            measure_write_miss_present_plus() / ms,
        "upgrade_write_ms": measure_upgrade_write() / ms,
        "remote_map_write_ms": measure_remote_map_write() / ms,
        "shootdown_increment_us":
            max(b - a for a, b in zip(costs, costs[1:])) / 1e3,
    }


def _exec_sleep(spec: dict, seed: int) -> dict:
    # sweep-runner self-test helper: a point with a controllable duration
    import time

    time.sleep(float(spec.get("seconds", 0.0)))
    return {"slept": float(spec.get("seconds", 0.0)), "seed": seed}


def _exec_fail(spec: dict, seed: int) -> dict:
    # sweep-runner self-test helper: a point that always raises
    raise RuntimeError(spec.get("message", "induced point failure"))


def _exec_echo(spec: dict, seed: int) -> dict:
    # sweep-runner self-test helper: returns its inputs
    return {"value": spec.get("value"), "seed": seed}


_KINDS: dict[str, Callable[[dict, int], dict]] = {
    "run": _exec_run,
    "replay": _exec_replay,
    "sequent": _exec_sequent,
    "table1": _exec_table1,
    "transitions": _exec_transitions,
    "micro": _exec_micro,
    "sleep": _exec_sleep,
    "fail": _exec_fail,
    "echo": _exec_echo,
}


def execute_point(spec: dict, seed: int) -> dict:
    """Execute one point spec (possibly in a worker process) and return
    its flat, JSON-able metrics dict."""
    try:
        fn = _KINDS[spec["kind"]]
    except KeyError:
        raise ValueError(f"unknown point kind {spec.get('kind')!r}")
    return fn(spec, seed)


# -- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class BenchTarget:
    """One benchmark target: a named sweep plus its reduction."""

    name: str
    title: str
    #: scale -> (config, [(point name, spec), ...])
    points: Callable[[str], tuple[dict, list[tuple[str, dict]]]]
    #: {point name: metrics} for successful points -> derived dict
    derive: Callable[[dict], dict]


TARGETS: dict[str, BenchTarget] = {}


def _register(target: BenchTarget) -> BenchTarget:
    TARGETS[target.name] = target
    return target


def _scaled(scale: str, smoke, quick, full):
    return {"smoke": smoke, "quick": quick, "full": full}[scale]


def _speedup_from_points(label: str, ok: dict, prefix: str = "p=") -> dict:
    """Build a speedup-curve dict from points named ``p=<count>``."""
    times = {
        int(name[len(prefix):]): m["sim_time_ns"]
        for name, m in ok.items()
        if name.startswith(prefix) and m.get("sim_time_ns")
    }
    if not times:
        return {}
    curve = SpeedupCurve.from_times(label, times)
    out = curve.to_dict()
    out["max_speedup"] = max(curve.speedups)
    return out


# fig1: Gaussian elimination speedup ------------------------------------------


def _points_fig1(scale: str):
    n = _scaled(scale, 16, 96, 400)
    machine = _scaled(scale, 4, 16, 16)
    counts = _scaled(scale, (1, 2), (1, 2, 4, 8, 16), (1, 2, 4, 8, 12, 16))
    config = {"workload": "gauss", "n": n, "machine": machine,
              "counts": list(counts)}
    points = [
        (
            f"p={p}",
            {
                "kind": "run",
                "workload": "gauss",
                "machine": machine,
                "args": {"n": n, "n_threads": p, "verify_result": False},
            },
        )
        for p in counts
    ]
    return config, points


def _derive_fig1(ok: dict) -> dict:
    return {"curve": _speedup_from_points("gauss", ok)}


_register(BenchTarget(
    name="fig1_gauss",
    title="Figure 1: Gaussian elimination speedup on PLATINUM",
    points=_points_fig1,
    derive=_derive_fig1,
))


# fig4: protocol conformance ---------------------------------------------------


def _points_fig4(scale: str):
    machine = _scaled(scale, 4, 8, 8)
    gauss_n = _scaled(scale, 12, 24, 48)
    ops = _scaled(scale, 8, 24, 48)
    config = {"machine": machine}
    points = [
        (
            "roundrobin",
            {
                "kind": "transitions",
                "workload": "roundrobin",
                "machine": machine,
                "args": {"n_threads": 4, "operations": ops},
            },
        ),
        (
            "gauss",
            {
                "kind": "transitions",
                "workload": "gauss",
                "machine": machine,
                "args": {"n": gauss_n, "n_threads": 4},
            },
        ),
        (
            "phasechange",
            {
                "kind": "transitions",
                "workload": "phasechange",
                "machine": machine,
                "defrost_period": 30e6,
                "args": {"n_threads": 4},
            },
        ),
    ]
    return config, points


def _derive_fig4(ok: dict) -> dict:
    return {
        "all_ok": all(m["ok"] for m in ok.values()) if ok else False,
        "total_faults": sum(m["n_faults"] for m in ok.values()),
        "total_events": sum(m["n_events"] for m in ok.values()),
    }


_register(BenchTarget(
    name="fig4_transitions",
    title="Figure 4: traced runs replayed against the transition table",
    points=_points_fig4,
    derive=_derive_fig4,
))


# fig5: mergesort vs the Sequent baseline -------------------------------------


def _points_fig5(scale: str):
    n = _scaled(scale, 256, 8192, 65536)
    machine = _scaled(scale, 4, 16, 16)
    counts = _scaled(scale, (1, 2), (1, 2, 4, 8, 16), (1, 2, 4, 8, 12, 16))
    config = {"workload": "mergesort", "n": n, "machine": machine,
              "counts": list(counts)}
    points = []
    for p in counts:
        args = {"n": n, "n_threads": p, "verify_result": False}
        points.append((
            f"platinum p={p}",
            {"kind": "run", "workload": "mergesort", "machine": machine,
             "args": args},
        ))
        points.append((
            f"sequent p={p}",
            {"kind": "sequent", "workload": "mergesort",
             "machine": machine, "args": args},
        ))
    return config, points


def _derive_fig5(ok: dict) -> dict:
    return {
        "platinum": _speedup_from_points("mergesort-platinum", ok,
                                         prefix="platinum p="),
        "sequent": _speedup_from_points("mergesort-sequent", ok,
                                        prefix="sequent p="),
    }


_register(BenchTarget(
    name="fig5_mergesort",
    title="Figure 5: mergesort speedup, PLATINUM vs the UMA baseline",
    points=_points_fig5,
    derive=_derive_fig5,
))


# fig6: neural-network simulator speedup --------------------------------------


def _points_fig6(scale: str):
    epochs = _scaled(scale, 2, 10, 30)
    machine = _scaled(scale, 4, 16, 16)
    counts = _scaled(scale, (1, 2), (1, 2, 4, 8), (1, 2, 4, 6, 8, 10))
    config = {"workload": "neural", "epochs": epochs, "machine": machine,
              "counts": list(counts)}
    points = [
        (
            f"p={p}",
            {
                "kind": "run",
                "workload": "neural",
                "machine": machine,
                "args": {"epochs": epochs, "n_threads": p},
            },
        )
        for p in counts
    ]
    return config, points


def _derive_fig6(ok: dict) -> dict:
    return {"curve": _speedup_from_points("neural", ok)}


_register(BenchTarget(
    name="fig6_neural",
    title="Figure 6: neural-network simulator speedup",
    points=_points_fig6,
    derive=_derive_fig6,
))


# sec4: microbenchmarks -------------------------------------------------------


def _points_sec4(scale: str):
    return {}, [("micro", {"kind": "micro"})]


def _derive_sec4(ok: dict) -> dict:
    m = ok.get("micro", {})
    paper = {
        "page_copy_ms": (1.11, 1.11),
        "read_miss_clean_ms": (1.34, 1.38),
        "read_miss_modified_ms": (1.38, 1.59),
        "write_miss_present_plus_ms": (0.25, 0.45),
    }
    in_range = {
        key: bool(m and lo * 0.5 <= m.get(key, -1.0) <= hi * 1.5)
        for key, (lo, hi) in paper.items()
    }
    return {"paper_range": {k: list(v) for k, v in paper.items()},
            "in_range": in_range}


_register(BenchTarget(
    name="sec4_micro",
    title="Section 4: fault-path microbenchmarks vs the paper's numbers",
    points=_points_sec4,
    derive=_derive_sec4,
))


# sec4.2: the frozen-lock anecdote --------------------------------------------


def _points_sec42(scale: str):
    n = _scaled(scale, 24, 96, 200)
    machine = _scaled(scale, 4, 8, 16)
    threads = _scaled(scale, 4, 8, 16)
    config = {"workload": "gauss", "n": n, "machine": machine,
              "defrost_period_ms": 20.0}
    points = []
    for colocate in (True, False):
        for defrost in (True, False):
            name = (
                ("colocated" if colocate else "separate")
                + "+" + ("defrost" if defrost else "nodefrost")
            )
            points.append((
                name,
                {
                    **sec42_spec(n, machine, threads,
                                 colocate=colocate, defrost=defrost),
                    "page_detail": ["misc"],
                    "profile": 5,
                },
            ))
    return config, points


def _derive_sec42(ok: dict) -> dict:
    out = {}
    for name, m in ok.items():
        pages = m.get("pages[misc]", {})
        profile = m.get("profile", {})
        top = profile.get("top_pages") or [{}]
        out[name] = {
            "sim_time_ms": m.get("sim_time_ms"),
            "misc_was_frozen": pages.get("was_frozen", 0) > 0,
            "misc_faults": pages.get("faults", 0),
            # the profiler's conclusion: which page costs the most, and
            # does the attribution tile P*T exactly
            "top_page": top[0].get("label"),
            "attribution_reconciled": profile.get("reconciled"),
        }
    return {"configs": out}


_register(BenchTarget(
    name="sec42_anecdote",
    title="Section 4.2: the colocated-lock freeze anecdote",
    points=_points_sec42,
    derive=_derive_sec42,
))


# sec5.1: three programming systems -------------------------------------------


def _points_sec51(scale: str):
    n = _scaled(scale, 16, 64, 400)
    machine = _scaled(scale, 4, 16, 16)
    counts = (1, machine)
    config = {"workload": "gauss", "n": n, "machine": machine,
              "counts": list(counts)}
    points = []
    for system in ("platinum", "uniform", "smp"):
        for p in counts:
            points.append((
                f"{system} p={p}",
                {
                    "kind": "run",
                    "system": system,
                    "workload": "gauss",
                    "machine": machine,
                    "args": {"n": n, "n_threads": p,
                             "verify_result": False},
                },
            ))
    return config, points


def _derive_sec51(ok: dict) -> dict:
    speedups = {}
    for system in ("platinum", "uniform", "smp"):
        times = {
            int(name.split("p=")[1]): m["sim_time_ns"]
            for name, m in ok.items()
            if name.startswith(f"{system} p=")
        }
        if len(times) >= 2:
            pmax = max(times)
            if times[pmax]:
                speedups[system] = times[1] / times[pmax]
    ordering_ok = (
        {"uniform", "platinum", "smp"} <= set(speedups)
        and speedups["uniform"] <= speedups["platinum"]
        <= speedups["smp"]
    )
    return {"speedups": speedups, "ordering_ok": ordering_ok}


_register(BenchTarget(
    name="sec51_comparison",
    title="Section 5.1: Gauss under three programming systems",
    points=_points_sec51,
    derive=_derive_sec51,
))


# tab1: the migration cost model ----------------------------------------------


def _points_tab1(scale: str):
    return {}, [("paper-constants", {"kind": "table1"})]


def _derive_tab1(ok: dict) -> dict:
    m = ok.get("paper-constants", {})
    return {
        "matches_published": bool(m) and m.get("mismatches", 1) == 0,
        "table": m.get("table", {}),
    }


_register(BenchTarget(
    name="tab1_costmodel",
    title="Table 1: minimum economical page size from the cost model",
    points=_points_tab1,
    derive=_derive_tab1,
))


# ablation: freeze-window policy ----------------------------------------------


def _points_ablation_policy(scale: str):
    n = _scaled(scale, 16, 64, 96)
    machine = _scaled(scale, 4, 16, 16)
    threads = _scaled(scale, 2, 8, 8)
    t1_ms = _scaled(scale, (10,), (5, 10, 30, 100, 300),
                    (5, 10, 30, 100, 300))
    ops = _scaled(scale, 8, 32, 64)
    config = {"workload": "gauss", "n": n, "machine": machine,
              "t1_ms": list(t1_ms)}
    gauss_args = {"n": n, "n_threads": threads, "verify_result": False}
    points = [
        (
            f"t1={ms}ms",
            {
                "kind": "run",
                "workload": "gauss",
                "machine": machine,
                "policy": "freeze",
                "policy_args": {"t1": ms * 1e6},
                "args": gauss_args,
            },
        )
        for ms in t1_ms
    ]
    points.append((
        "variant=thaw-on-fault",
        {
            "kind": "run",
            "workload": "gauss",
            "machine": machine,
            "policy": "freeze",
            "policy_args": {"thaw_on_fault": True},
            "args": gauss_args,
        },
    ))
    if scale != "smoke":
        for policy in ("freeze", "always", "never", "ace"):
            for workload in ("roundrobin", "readonly"):
                points.append((
                    f"{policy}:{workload}",
                    {
                        "kind": "run",
                        "workload": workload,
                        "machine": machine,
                        "policy": policy,
                        "defrost": policy == "freeze",
                        "args": {"n_threads": 4, "operations": ops}
                        if workload == "roundrobin"
                        else {"n_threads": 4},
                    },
                ))
    return config, points


def _derive_ablation_policy(ok: dict) -> dict:
    sweep = {
        name[3:-2]: m["sim_time_ms"]
        for name, m in ok.items()
        if name.startswith("t1=")
    }
    base = sweep.get("10")
    max_dev = (
        max(abs(t / base - 1.0) for t in sweep.values()) if base else None
    )
    matrix = {
        name: m["sim_time_ms"]
        for name, m in ok.items()
        if ":" in name
    }
    return {"t1_sweep_ms": sweep, "t1_max_rel_deviation": max_dev,
            "policy_matrix_ms": matrix}


_register(BenchTarget(
    name="ablation_policy",
    title="Ablation: freeze window t1, thaw variants and policy matrix",
    points=_points_ablation_policy,
    derive=_derive_ablation_policy,
))


# ablation: adaptive policy vs the paper's fixed policy -----------------------


#: golden-corpus seeds (smoke profile) whose generated programs falsely
#: share pages and see defrost-period ping-pong under the fixed policy
_ADAPTIVE_FS_SEEDS = (102, 112, 116)


def _points_ablation_adaptive(scale: str):
    from ..workloads import generate_spec

    n = _scaled(scale, 24, 96, 200)
    machine = _scaled(scale, 4, 8, 16)
    threads = _scaled(scale, 4, 8, 16)
    config = {
        "workload": "gauss+generated",
        "n": n,
        "machine": machine,
        "gauss_defrost_period_ms": 20.0,
        "gen_defrost_period_ms": 1.0,
        "gen_seeds": list(_ADAPTIVE_FS_SEEDS),
        "policies": ["freeze", "adaptive"],
    }
    points = []
    for policy in ("freeze", "adaptive"):
        points.append((
            f"gauss-colocated:{policy}",
            {**sec42_spec(n, machine, threads), "policy": policy},
        ))
    # the generated cases are pinned to the smoke-profile golden-corpus
    # specs at every scale: the seeds were chosen for their measured
    # false-sharing ping-pong, which is a property of those exact specs
    for seed in _ADAPTIVE_FS_SEEDS:
        spec = generate_spec(seed, "smoke")
        for policy in ("freeze", "adaptive"):
            points.append((
                f"{spec.name}:{policy}",
                {
                    "kind": "run",
                    "workload": "generated",
                    "machine": spec.machine,
                    "policy": policy,
                    "defrost": True,
                    "defrost_period": 1e6,
                    "args": {"spec": spec.to_dict()},
                },
            ))
    return config, points


def _derive_ablation_adaptive(ok: dict) -> dict:
    cases: dict[str, dict] = {}
    for name, m in ok.items():
        case, _, policy = name.rpartition(":")
        cases.setdefault(case, {})[policy] = m["sim_time_ms"]
    out = {}
    for case, times in sorted(cases.items()):
        fixed = times.get("freeze")
        adaptive = times.get("adaptive")
        if not fixed or adaptive is None:
            continue
        out[case] = {
            "fixed_ms": fixed,
            "adaptive_ms": adaptive,
            "win_pct": round(100.0 * (fixed - adaptive) / fixed, 2),
            "adaptive_wins": adaptive < fixed,
        }
    return {
        "cases": out,
        "all_wins": bool(out) and all(
            c["adaptive_wins"] for c in out.values()
        ),
    }


_register(BenchTarget(
    name="ablation_adaptive",
    title="Ablation: adaptive per-page freeze policy vs the fixed policy",
    points=_points_ablation_adaptive,
    derive=_derive_ablation_adaptive,
))


# ablation: related-work comparators ------------------------------------------


def _points_ablation_related(scale: str):
    machine = _scaled(scale, 4, 8, 16)
    ops = _scaled(scale, 8, 32, 64)
    page_sizes = _scaled(scale, (1024,), (256, 1024, 4096),
                         (256, 512, 1024, 2048, 4096))
    config = {"machine": machine,
              "competitive_period_ms": 20.0,
              "page_bytes": list(page_sizes)}
    points = []
    for flavour, extra in (
        ("platinum", {}),
        ("competitive", {"competitive": True,
                         "competitive_period": 20e6}),
    ):
        for workload in ("roundrobin", "readonly"):
            points.append((
                f"{flavour}:{workload}",
                {
                    "kind": "run",
                    "workload": workload,
                    "machine": machine,
                    "args": {"n_threads": 4, "operations": ops}
                    if workload == "roundrobin"
                    else {"n_threads": 4},
                    **extra,
                },
            ))
    for page_bytes in page_sizes:
        points.append((
            f"page={page_bytes}",
            {
                "kind": "run",
                "workload": "readonly",
                "machine": machine,
                "params": {"page_bytes": page_bytes},
                "args": {"n_threads": 4},
            },
        ))
    return config, points


def _derive_ablation_related(ok: dict) -> dict:
    flavours = {
        name: m["sim_time_ms"]
        for name, m in ok.items()
        if ":" in name
    }
    pages = {
        name[5:]: m["sim_time_ms"]
        for name, m in ok.items()
        if name.startswith("page=")
    }
    return {"flavour_ms": flavours, "page_size_ms": pages}


_register(BenchTarget(
    name="ablation_related_work",
    title="Ablation: competitive migration daemon and page-size sweep",
    points=_points_ablation_related,
    derive=_derive_ablation_related,
))


# ablation: RPC vs shared-data options ----------------------------------------


def _points_ablation_rpc(scale: str):
    rhos = _scaled(scale, (0.25,), (0.05, 0.25, 1.0, 2.0),
                   (0.05, 0.25, 0.5, 1.0, 2.0))
    ops = _scaled(scale, 8, 48, 96)
    s_words = _scaled(scale, 128, 512, 512)
    n_threads = 4
    machine = n_threads + 1
    config = {"workload": "roundrobin", "rhos": list(rhos),
              "operations": ops, "s_words": s_words,
              "machine": machine}
    options = (
        ("remote", {"policy": "never", "defrost": False}),
        ("replicate", {"policy": "always", "defrost": False}),
        ("platinum", {}),
    )
    points = []
    for rho in rhos:
        for option, extra in options:
            points.append((
                f"{option}:rho={rho}",
                {
                    "kind": "run",
                    "workload": "roundrobin",
                    "machine": machine,
                    "args": {
                        "n_threads": n_threads,
                        "operations": ops,
                        "s_words": s_words,
                        "rho": rho,
                        "memory_sync": False,
                    },
                    **extra,
                },
            ))
    return config, points


def _derive_ablation_rpc(ok: dict) -> dict:
    by_rho: dict[str, dict] = {}
    for name, m in ok.items():
        option, _, rho = name.partition(":rho=")
        by_rho.setdefault(rho, {})[option] = m["sim_time_ms"]
    best = {
        rho: min(options, key=options.get)
        for rho, options in by_rho.items()
        if options
    }
    return {"time_ms_by_rho": by_rho, "best_option_by_rho": best}


_register(BenchTarget(
    name="ablation_rpc",
    title="Ablation: remote access vs replication vs PLATINUM by density",
    points=_points_ablation_rpc,
    derive=_derive_ablation_rpc,
))


# ablation: trace-driven replay ------------------------------------------------


def _points_ablation_replay(scale: str):
    n = _scaled(scale, 16, 64, 96)
    machine = _scaled(scale, 4, 16, 16)
    threads = _scaled(scale, 2, 8, 8)
    record = {
        "kind": "run",
        "workload": "gauss",
        "machine": machine,
        "args": {"n": n, "n_threads": threads, "verify_result": False},
    }
    config = {"workload": "gauss", "n": n, "machine": machine,
              "n_threads": threads}
    points = [
        ("live", dict(record)),
        # same configuration as the recording: the replayer itself
        # asserts the A/B invariants (sim time, event count, every
        # protocol counter) and fails the point on any divergence
        ("replay:recorded",
         {"kind": "replay", "record": record, "check_expected": True}),
    ]
    for policy in ("always", "never", "ace"):
        points.append((
            f"replay:{policy}",
            {"kind": "replay", "record": record, "policy": policy},
        ))
    points.append((
        "replay:freeze-t1=100ms",
        {"kind": "replay", "record": record, "policy": "freeze",
         "policy_args": {"t1": 100e6}},
    ))
    points.append((
        "replay:slow-remote",
        {"kind": "replay", "record": record,
         "params": {"t_remote_read": 10000.0, "t_remote_write": 5000.0}},
    ))
    points.append((
        # approximate array-at-a-time costing of the recorded config;
        # derive() checks it conserves the reference string exactly
        "replay:fast",
        {"kind": "replay", "record": record, "mode": "fast"},
    ))
    return config, points


def _derive_ablation_replay(ok: dict) -> dict:
    live = ok.get("live")
    recorded = ok.get("replay:recorded")
    matches = None
    if live and recorded:
        keys = (
            "sim_time_ns", "faults", "read_faults", "write_faults",
            "replications", "migrations", "invalidations",
            "remote_mappings", "freezes", "local_words", "remote_words",
            "queue_delay_ms", "transfers", "shootdowns", "ipis",
        )
        matches = all(live.get(k) == recorded.get(k) for k in keys)
    variants = {
        name.split("replay:", 1)[1]: m["sim_time_ms"]
        for name, m in ok.items()
        if name.startswith("replay:")
    }
    derived = {"replay_matches_live": matches, "variant_ms": variants}
    fast = ok.get("replay:fast")
    if live and fast:
        live_words = live["local_words"] + live["remote_words"]
        fast_words = fast["local_words"] + fast["remote_words"]
        derived["fast_words_conserved"] = live_words == fast_words
        derived["fast_sim_dev_pct"] = round(
            100.0 * abs(fast["sim_time_ns"] - live["sim_time_ns"])
            / live["sim_time_ns"], 2)
        derived["fast_batched_ops"] = fast["batched_ops"]
    return derived


_register(BenchTarget(
    name="ablation_replay",
    title="Ablation: policy/machine variants re-simulated from one trace",
    points=_points_ablation_replay,
    derive=_derive_ablation_replay,
))


# generated: constrained-random spec x policy x machine matrix ----------------


def _points_generated(scale: str):
    from ..workloads import bench_spec_for, generate_spec

    base_seed = 100
    n_specs = _scaled(scale, 2, 4, 8)
    policies = _scaled(
        scale, (None,), (None, "always", "never"),
        (None, "always", "never", "ace"),
    )
    machines = _scaled(scale, (None,), (None, 16), (None, 12, 16))
    profile = "smoke" if scale == "smoke" else "quick"
    specs = [generate_spec(base_seed + i, profile)
             for i in range(n_specs)]
    config = {
        "profile": profile,
        "base_seed": base_seed,
        "specs": [s.name for s in specs],
        "policies": [p or "default" for p in policies],
        "machines": [m or "spec" for m in machines],
    }
    points = []
    for spec in specs:
        for policy in policies:
            for machine in machines:
                name = (f"{spec.name}:{policy or 'default'}"
                        f":m={machine or spec.machine}")
                points.append((
                    name,
                    bench_spec_for(spec, policy=policy, machine=machine),
                ))
    return config, points


def _derive_generated(ok: dict) -> dict:
    matrix: dict[str, dict] = {}
    for name, m in ok.items():
        spec_name, _, rest = name.partition(":")
        matrix.setdefault(spec_name, {})[rest] = m["sim_time_ms"]
    return {
        "matrix_ms": matrix,
        "total_faults": sum(m.get("faults", 0) for m in ok.values()),
        "total_freezes": sum(m.get("freezes", 0) for m in ok.values()),
    }


_register(BenchTarget(
    name="generated_matrix",
    title="Generated: constrained-random specs x policy x machine",
    points=_points_generated,
    derive=_derive_generated,
))


def target_names() -> list[str]:
    return list(TARGETS)
