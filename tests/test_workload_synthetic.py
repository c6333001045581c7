"""Tests for the synthetic sharing-pattern workloads."""

import pytest

from repro import make_kernel, run_program
from repro.policy.fixed import AlwaysReplicatePolicy, NeverCachePolicy
from repro.workloads.synthetic import (
    PhaseChangeSharing,
    PrivateWork,
    ReadOnlySharing,
    RoundRobinRPC,
    RoundRobinSharing,
)


def test_round_robin_runs_and_verifies():
    kernel = make_kernel(n_processors=4)
    result = run_program(kernel, RoundRobinSharing(n_threads=4,
                                                   operations=16))
    assert result.sim_time_ns > 0


def test_round_robin_rpc_keeps_every_reference_to_x_local():
    """Section 4.1's third option at 8 operations: the server on X's
    home node does all the references, the clients only send messages."""
    kernel = make_kernel(n_processors=5)
    program = RoundRobinRPC(n_threads=4, operations=8, s_words=128,
                            memory_sync=False)
    result = run_program(kernel, program)  # verify(): 8 calls served
    assert program.svc.calls_served == 8
    x_rows = [r for r in result.report.rows
              if r.label.startswith("X-state")]
    # X faults twice ever: the server's first read and its first write
    assert x_rows and sum(r.faults for r in x_rows) == 2
    assert not any(r.replications or r.migrations or r.remote_mappings
                   for r in x_rows)
    # as a registered workload it costs the same through a point spec
    from repro.bench.targets import execute_point

    metrics = execute_point(
        {"kind": "run", "workload": "roundrobin_rpc", "machine": 5,
         "args": {"n_threads": 4, "operations": 8, "s_words": 128,
                  "memory_sync": False}}, seed=0)
    assert metrics["sim_time_ns"] == result.sim_time_ns


def test_round_robin_rho_validation():
    with pytest.raises(ValueError):
        RoundRobinSharing(rho=0)


def test_round_robin_freezes_shared_page_under_freeze_policy():
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    result = run_program(
        kernel, RoundRobinSharing(n_threads=4, operations=24)
    )
    x_rows = [r for r in result.report.rows if r.label.startswith("X")]
    assert any(r.was_frozen for r in x_rows)


def test_round_robin_ping_pongs_under_always_replicate():
    kernel = make_kernel(
        n_processors=4, policy=AlwaysReplicatePolicy(),
        defrost_enabled=False,
    )
    result = run_program(
        kernel, RoundRobinSharing(n_threads=4, operations=24)
    )
    x_rows = [r for r in result.report.rows if r.label.startswith("X")]
    # every handoff re-replicates and then collapses the replicas: the
    # page ping-pongs as a replicate/invalidate cycle
    assert sum(r.replications for r in x_rows) >= 8
    assert sum(r.invalidations for r in x_rows) >= 8


def test_read_only_sharing_replicates_once_per_node():
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    result = run_program(
        kernel, ReadOnlySharing(n_threads=4, table_pages=2, sweeps=6)
    )
    table_rows = [
        r for r in result.report.rows
        if r.label.startswith("table") and r.faults > 0
    ]
    for row in table_rows:
        # each node replicates at most once; repeat sweeps are free
        assert row.replications <= 3  # 4 nodes - the first-touch one
        assert row.invalidations == 0


def test_read_only_sharing_sums_correct():
    kernel = make_kernel(n_processors=4)
    prog = ReadOnlySharing(n_threads=4, table_pages=2, sweeps=3)
    run_program(kernel, prog)  # verify() checks the sums


def test_phase_change_recovers_via_defrost():
    """The write-hot phase freezes the page; the defrost daemon thaws it
    and the read phase replicates it again."""
    kernel = make_kernel(n_processors=4, defrost_period=20e6)
    prog = PhaseChangeSharing(n_threads=4, hot_writes=8, cold_reads=600)
    result = run_program(kernel, prog)
    assert prog.cpage.stats.freezes >= 1
    assert prog.cpage.stats.thaws >= 1
    assert prog.cpage.stats.replications >= 1


def test_phase_change_stays_frozen_without_defrost():
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    prog = PhaseChangeSharing(n_threads=4, hot_writes=8, cold_reads=60)
    run_program(kernel, prog)
    assert prog.cpage.frozen
    assert prog.cpage.stats.thaws == 0


def test_phase_change_defrost_speeds_up_read_phase():
    def run(defrost):
        kernel = make_kernel(
            n_processors=4,
            defrost_enabled=defrost,
            defrost_period=20e6,
        )
        prog = PhaseChangeSharing(n_threads=4, hot_writes=8,
                                  cold_reads=600)
        return run_program(kernel, prog).sim_time_ns

    assert run(True) < run(False)


def test_private_work_has_no_coherency_traffic():
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    result = run_program(kernel, PrivateWork(n_threads=4, sweeps=4))
    assert result.report.ipis == 0
    for row in result.report.rows:
        assert row.invalidations == 0
        assert not row.was_frozen


def test_private_work_under_never_cache_still_correct():
    kernel = make_kernel(n_processors=4, policy=NeverCachePolicy())
    run_program(kernel, PrivateWork(n_threads=4, sweeps=2))
