"""Tests for the Jacobi/SOR nearest-neighbour workload."""

import numpy as np
import pytest

from repro import make_kernel, run_program
from repro.policy.fixed import AlwaysReplicatePolicy, NeverCachePolicy
from repro.workloads.sor import (
    JacobiSOR,
    jacobi_reference,
    make_grid,
)


def test_reference_smooths_toward_mean():
    grid = make_grid(16)
    out = jacobi_reference(grid, 10)
    # smoothing shrinks the interior spread
    assert out[1:-1, 1:-1].std() < grid[1:-1, 1:-1].std()
    # boundary rows are never touched
    assert np.array_equal(out[0], grid[0])
    assert np.array_equal(out[-1], grid[-1])


@pytest.mark.parametrize("n,p,iters", [
    (16, 2, 3), (32, 4, 5), (20, 3, 4), (16, 4, 1),
])
def test_parallel_matches_sequential(n, p, iters):
    kernel = make_kernel(n_processors=max(p, 2))
    run_program(
        kernel, JacobiSOR(n=n, iterations=iters, n_threads=p)
    )  # verify() compares against jacobi_reference


def test_single_thread():
    kernel = make_kernel(n_processors=2)
    run_program(kernel, JacobiSOR(n=12, iterations=3, n_threads=1))


def test_threads_capped_by_interior_rows():
    kernel = make_kernel(n_processors=8)
    prog = JacobiSOR(n=6, iterations=2, n_threads=8)
    run_program(kernel, prog)
    assert prog.p == 4  # 4 interior rows


def test_correct_under_every_policy():
    for policy in (AlwaysReplicatePolicy(), NeverCachePolicy()):
        kernel = make_kernel(n_processors=4, policy=policy)
        run_program(kernel, JacobiSOR(n=16, iterations=3, n_threads=4))


def test_interior_pages_settle_with_their_owner():
    """Interior rows are placed at their owners by first touch and stay:
    no grid page needs more than a couple of migrations over the run."""
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    prog = JacobiSOR(n=32, iterations=6, n_threads=4,
                     verify_result=False)
    run_program(kernel, prog)
    report = kernel.report()
    for row in report.rows:
        if row.label.startswith("grid"):
            assert row.migrations <= 2, (row.label, row.migrations)


def test_boundary_rows_freeze_at_fine_iteration_grain():
    """With iterations far shorter than t1, the alternating write/read
    on boundary pages is interference: they freeze (the g(2)=2 case)."""
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    result = run_program(
        kernel,
        JacobiSOR(n=32, iterations=6, n_threads=4, verify_result=False),
    )
    frozen_grid_pages = [
        r.label for r in result.report.ever_frozen_pages
        if r.label.startswith("grid")
    ]
    assert frozen_grid_pages


def test_validation():
    with pytest.raises(ValueError):
        JacobiSOR(n=2)
    with pytest.raises(ValueError):
        JacobiSOR(n=8, iterations=0)
