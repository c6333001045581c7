"""Tests for the Gaussian elimination workload."""

import numpy as np
import pytest

from repro import make_kernel, run_program
from repro.policy.fixed import AlwaysReplicatePolicy, NeverCachePolicy
from repro.workloads.gauss import (
    GaussianElimination,
    MODULUS,
    eliminate_reference,
    make_input,
)


def test_reference_elimination_zeroes_subdiagonal_column():
    a = eliminate_reference(make_input(8))
    # after round k, column k below the diagonal is zero (mod P)
    for k in range(7):
        assert np.all(a[k + 1:, k] % MODULUS == 0)


def test_reference_elimination_deterministic():
    assert np.array_equal(
        eliminate_reference(make_input(6, seed=3)),
        eliminate_reference(make_input(6, seed=3)),
    )


def test_input_seeded():
    assert np.array_equal(make_input(5, seed=1), make_input(5, seed=1))
    assert not np.array_equal(make_input(5, seed=1), make_input(5, seed=2))


@pytest.mark.parametrize("n,p", [(8, 2), (16, 4), (24, 3)])
def test_parallel_matches_sequential(n, p):
    kernel = make_kernel(n_processors=max(p, 2))
    run_program(kernel, GaussianElimination(n=n, n_threads=p))
    # verify() inside run_program compares against the reference


def test_single_thread_run():
    kernel = make_kernel(n_processors=2)
    run_program(kernel, GaussianElimination(n=8, n_threads=1))


def test_unpadded_layout_still_correct():
    kernel = make_kernel(n_processors=4)
    run_program(
        kernel, GaussianElimination(n=16, n_threads=4, pad_rows=False)
    )


def test_correct_under_never_cache_policy():
    kernel = make_kernel(n_processors=4, policy=NeverCachePolicy())
    run_program(kernel, GaussianElimination(n=12, n_threads=4))


def test_correct_under_always_replicate_policy():
    kernel = make_kernel(n_processors=4, policy=AlwaysReplicatePolicy())
    run_program(kernel, GaussianElimination(n=12, n_threads=4))


def test_matrix_pages_replicate_and_sync_page_freezes():
    """The paper's section 5.1 observation: pivot pages replicate; only
    the event-count page is frozen."""
    kernel = make_kernel(n_processors=4)
    result = run_program(kernel, GaussianElimination(n=24, n_threads=4))
    rows = {r.label: r for r in result.report.rows}
    matrix_rows = [r for label, r in rows.items()
                   if label.startswith("matrix") and r.faults > 0]
    assert any(r.replications > 0 for r in matrix_rows)
    assert not any(r.was_frozen for r in matrix_rows)
    evc_rows = [r for label, r in rows.items() if label.startswith("evc")]
    assert any(r.was_frozen for r in evc_rows)


def test_colocated_lock_freezes_size_page():
    """The section 4.2 anecdote: co-locating the startup lock with the
    size variable freezes that page."""
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    result = run_program(
        kernel,
        GaussianElimination(n=16, n_threads=4,
                            colocate_lock_with_size=True),
    )
    rows = [r for r in result.report.rows if r.label.startswith("misc")]
    assert any(r.was_frozen for r in rows)


def test_separated_lock_leaves_size_page_replicated():
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    result = run_program(
        kernel,
        GaussianElimination(n=16, n_threads=4,
                            colocate_lock_with_size=False),
    )
    # misc[0] holds only the size variable now; it must not freeze
    row = next(r for r in result.report.rows if r.label == "misc[0]")
    assert not row.was_frozen


def test_colocated_lock_forces_remote_inner_loop_reads():
    """The frozen size page turns every thread's termination-test read
    remote; with the lock on its own page the size page replicates and
    the reads stay local."""
    def remote_words(colocate):
        kernel = make_kernel(n_processors=4, defrost_enabled=False)
        result = run_program(
            kernel,
            GaussianElimination(
                n=24, n_threads=4, colocate_lock_with_size=colocate,
                verify_result=False,
            ),
        )
        return result.report.remote_words

    assert remote_words(True) > remote_words(False)


def test_pivot_pages_show_handler_contention():
    kernel = make_kernel(n_processors=4)
    result = run_program(
        kernel, GaussianElimination(n=24, n_threads=4,
                                    verify_result=False)
    )
    matrix_wait = sum(
        r.handler_wait_ms
        for r in result.report.rows
        if r.label.startswith("matrix")
    )
    assert matrix_wait > 0


def test_stats_counters():
    kernel = make_kernel(n_processors=2)
    prog = GaussianElimination(n=8, n_threads=2)
    run_program(kernel, prog)
    assert prog.stats.pivot_reads > 0


def test_tiny_matrix_rejected():
    with pytest.raises(ValueError):
        GaussianElimination(n=1)


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_correct_across_seeds(seed):
    kernel = make_kernel(n_processors=2)
    run_program(kernel, GaussianElimination(n=10, n_threads=2,
                                            seed=seed))


def test_products_stay_inside_int64():
    """The modular update multiplies two values < P; the product must
    fit in int64 (P^2 < 2^63)."""
    assert MODULUS ** 2 < 2 ** 63
