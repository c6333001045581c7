"""Tests for the matrix-multiply workload."""

import pytest

from repro import make_kernel, run_program
from repro.analysis import measure_speedup
from repro.policy.fixed import NeverCachePolicy
from repro.workloads.matmul import MatrixMultiply


@pytest.mark.parametrize("n,p", [(8, 2), (16, 4), (12, 3)])
def test_product_matches_numpy(n, p):
    kernel = make_kernel(n_processors=max(p, 2))
    run_program(kernel, MatrixMultiply(n=n, n_threads=p))


def test_single_thread():
    kernel = make_kernel(n_processors=2)
    run_program(kernel, MatrixMultiply(n=8, n_threads=1))


def test_b_replicates_and_nothing_freezes():
    """The read-shared operand replicates; no page ever freezes."""
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    result = run_program(
        kernel, MatrixMultiply(n=40, n_threads=4, verify_result=False)
    )
    b_rows = [r for r in result.report.rows
              if r.label.startswith("B") and r.faults > 0]
    assert any(r.replications > 0 for r in b_rows)
    data_rows = [r for r in result.report.rows
                 if r.label[0] in "ABC"]
    assert all(not r.was_frozen for r in data_rows)


def test_near_linear_speedup():
    """No write sharing: the best case for coherent memory.  The size
    must be large enough to amortize replicating B once per node."""
    curve = measure_speedup(
        lambda p: MatrixMultiply(n=96, n_threads=p,
                                 verify_result=False),
        lambda p: make_kernel(n_processors=4),
        processor_counts=(1, 4),
    )
    assert curve.at(4).speedup > 3.2


def test_correct_under_never_cache():
    kernel = make_kernel(n_processors=4, policy=NeverCachePolicy())
    run_program(kernel, MatrixMultiply(n=12, n_threads=4))


def test_validation():
    with pytest.raises(ValueError):
        MatrixMultiply(n=1)
