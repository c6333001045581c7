"""The paper's application programs and microbenchmarks.

Gaussian elimination (Figure 1, section 5.1), parallel merge sort
(Figure 5, section 5.2), the recurrent-backpropagation neural-network
simulator (Figure 6, section 5.3), the section 4 basic-operation
microbenchmarks, and synthetic sharing patterns for ablations and tests.
"""

from .gauss import (
    GaussianElimination,
    eliminate_reference,
    make_input as make_gauss_input,
)
from .generate import (
    GeneratedWorkload,
    bench_spec_for,
    fingerprint_spec,
    generate_corpus,
    generate_spec,
    run_spec,
    verify_corpus,
    write_corpus,
)
from .matmul import MatrixMultiply, matmul_reference
from .mergesort import MergeSort, make_input as make_sort_input
from .micro import (
    measure_page_copy,
    measure_read_miss_clean,
    measure_read_miss_modified,
    measure_remote_map_write,
    measure_shootdown_increment,
    measure_upgrade_write,
    measure_write_miss_present_plus,
)
from .neural import NeuralNetSimulator
from .sor import JacobiSOR, jacobi_reference, make_grid
from .spec import PhaseSpec, SpecError, WorkloadSpec
from .synthetic import (
    PhaseChangeSharing,
    PrivateWork,
    ReadOnlySharing,
    RoundRobinRPC,
    RoundRobinSharing,
)

__all__ = [
    "GaussianElimination",
    "GeneratedWorkload",
    "JacobiSOR",
    "MatrixMultiply",
    "MergeSort",
    "NeuralNetSimulator",
    "PhaseChangeSharing",
    "PhaseSpec",
    "PrivateWork",
    "ReadOnlySharing",
    "RoundRobinRPC",
    "RoundRobinSharing",
    "SpecError",
    "WorkloadSpec",
    "bench_spec_for",
    "eliminate_reference",
    "fingerprint_spec",
    "generate_corpus",
    "generate_spec",
    "jacobi_reference",
    "matmul_reference",
    "make_grid",
    "make_gauss_input",
    "make_sort_input",
    "measure_page_copy",
    "measure_read_miss_clean",
    "measure_read_miss_modified",
    "measure_remote_map_write",
    "measure_shootdown_increment",
    "measure_upgrade_write",
    "measure_write_miss_present_plus",
    "run_spec",
    "verify_corpus",
    "write_corpus",
]
