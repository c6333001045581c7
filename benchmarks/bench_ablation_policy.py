"""Ablations over the replication policy (paper section 4.2).

Three claims from the paper are exercised:

1. application performance is insensitive to the freeze window t1 from
   10 ms up to about 100 ms;
2. the two frozen-page variants (stay frozen until the daemon thaws, vs
   thaw on the first post-window fault) show no significant difference;
3. the remote-mapping extension matters: against always-replicate
   (classic software-DSM behaviour) the freeze policy wins decisively on
   fine-grain write-sharing, and against never-cache it wins on
   coarse-grain sharing -- PLATINUM's policy is good at both, which is
   the paper's whole point.

The ACE-style policy (Bolosky et al., section 8) is included: it never
replicates written pages, which costs it on phase-changing workloads.
"""

from _common import publish

from repro.analysis import format_table
from repro.policy.fixed import (
    AceStylePolicy,
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from repro.runtime import make_kernel, run_program
from repro.workloads import (
    GaussianElimination,
    JacobiSOR,
    NeuralNetSimulator,
    PhaseChangeSharing,
)


def _time(policy, program, n_processors=8, defrost=True):
    kernel = make_kernel(
        n_processors=n_processors,
        policy=policy,
        defrost_enabled=defrost,
        defrost_period=50e6,
    )
    return run_program(kernel, program).sim_time_ms


def _t1_sweep():
    rows = []
    base = None
    for t1_ms in (5, 10, 30, 100, 300):
        time_ms = _time(
            TimestampFreezePolicy(t1=t1_ms * 1e6),
            GaussianElimination(n=96, n_threads=8, verify_result=False),
        )
        if t1_ms == 10:
            base = time_ms
        rows.append((t1_ms, time_ms))
    return rows, base


def _variant_comparison():
    out = {}
    for name, policy in (
        ("stay-frozen (default)", TimestampFreezePolicy()),
        ("thaw-on-fault", TimestampFreezePolicy(thaw_on_fault=True)),
    ):
        out[name] = _time(
            policy,
            GaussianElimination(n=96, n_threads=8, verify_result=False),
        )
    return out

def _policy_matrix():
    workloads = {
        "gauss 96 (coarse)": lambda: GaussianElimination(
            n=96, n_threads=8, verify_result=False
        ),
        "neural (fine-grain)": lambda: NeuralNetSimulator(
            epochs=10, n_threads=8
        ),
        "phase-change": lambda: PhaseChangeSharing(
            n_threads=8, hot_writes=16, cold_reads=400
        ),
        "jacobi (neighbours)": lambda: JacobiSOR(
            n=48, iterations=6, n_threads=8, verify_result=False
        ),
    }
    policies = {
        "freeze (PLATINUM)": TimestampFreezePolicy,
        "always-replicate": AlwaysReplicatePolicy,
        "never-cache": NeverCachePolicy,
        "ace-style": AceStylePolicy,
    }
    grid = {}
    for wname, wf in workloads.items():
        for pname, pf in policies.items():
            grid[(wname, pname)] = _time(pf(), wf())
    return workloads, policies, grid


def _measure():
    return _t1_sweep(), _variant_comparison(), _policy_matrix()


def _render(sweep, variants, matrix) -> str:
    (rows, base) = sweep
    sweep_table = format_table(
        ["t1 (ms)", "gauss time (ms)", "vs t1=10ms"],
        [[t1, f"{tm:.1f}", f"{tm / base - 1:+.1%}"] for t1, tm in rows],
        title="t1 freeze-window sensitivity (paper: insensitive "
        "10-100 ms)",
    )
    variant_table = format_table(
        ["frozen-page variant", "gauss time (ms)"],
        [[k, f"{v:.1f}"] for k, v in variants.items()],
        title="frozen-page policy variants (paper: no significant "
        "difference)",
    )
    workloads, policies, grid = matrix
    matrix_rows = []
    for wname in workloads:
        matrix_rows.append(
            [wname] + [f"{grid[(wname, pname)]:.1f}" for pname in policies]
        )
    matrix_table = format_table(
        ["workload \\ policy (ms)"] + list(policies),
        matrix_rows,
        title="policy x workload matrix",
    )
    return "\n\n".join([sweep_table, variant_table, matrix_table])


def test_policy_ablations(benchmark):
    sweep, variants, matrix = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    text = _render(sweep, variants, matrix)
    # claim 1: t1 in [10, 100] ms changes the time by under 10%
    rows, base = sweep
    for t1, tm in rows:
        if 10 <= t1 <= 100:
            assert abs(tm / base - 1) < 0.10, (t1, tm, base)
    # claim 2: the two frozen-page variants are within 10%
    values = list(variants.values())
    assert abs(values[0] / values[1] - 1) < 0.10
    # claim 3: the freeze policy beats always-replicate on the
    # fine-grain workload (where the remote-mapping extension matters)
    _, _, grid = matrix
    assert (
        grid[("neural (fine-grain)", "freeze (PLATINUM)")]
        < grid[("neural (fine-grain)", "always-replicate")]
    )
    publish(
        "ablation_policy", text,
        derived={
            "t1_sweep_ms": {str(t1): tm for t1, tm in rows},
            "variants_ms": dict(variants),
            "matrix_ms": {
                f"{pname} / {wname}": v
                for (wname, pname), v in grid.items()
            },
        },
    )
