#!/usr/bin/env python
"""Exploring the replication-policy design space (paper section 4).

Runs three workloads with very different sharing patterns under four
policies -- PLATINUM's freeze/thaw policy, always-replicate (classic
software DSM), never-cache (static placement / Uniform System), and the
ACE-style policy of Bolosky et al. -- and prints the time matrix.  Then
prints Table 1, the analytic answer to "when does moving a page pay?".

The point the paper makes: always-replicate wins on coarse-grain sharing
but collapses under fine-grain write-sharing; never-cache is the
opposite; PLATINUM's policy, by *selectively disabling caching* through
remote mappings, is competitive everywhere.

Run:  python examples/policy_playground.py
"""

from repro import make_kernel, run_program
from repro.analysis import MigrationCostModel, format_table
from repro.policy.fixed import (
    AceStylePolicy,
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from repro.workloads import (
    GaussianElimination,
    NeuralNetSimulator,
    ReadOnlySharing,
)

WORKLOADS = {
    "gauss (coarse-grain)": lambda: GaussianElimination(
        n=96, n_threads=8, verify_result=False
    ),
    "neural (fine-grain)": lambda: NeuralNetSimulator(
        epochs=10, n_threads=8
    ),
    "read-only table": lambda: ReadOnlySharing(
        n_threads=8, table_pages=4, sweeps=8
    ),
}

POLICIES = {
    "freeze (PLATINUM)": TimestampFreezePolicy,
    "always-replicate": AlwaysReplicatePolicy,
    "never-cache": NeverCachePolicy,
    "ace-style": AceStylePolicy,
}


def main() -> None:
    rows = []
    for wname, wfactory in WORKLOADS.items():
        row = [wname]
        for pname, pfactory in POLICIES.items():
            kernel = make_kernel(
                n_processors=8, policy=pfactory(), defrost_period=50e6
            )
            result = run_program(kernel, wfactory())
            row.append(f"{result.sim_time_ms:9.1f}")
        rows.append(row)

    print(format_table(
        ["workload \\ policy (time ms)"] + list(POLICIES),
        rows,
        title="policy x workload time matrix (lower is better)",
    ))
    print()
    print("observations (cf. paper sections 4.2 and 5):")
    print("  - on coarse-grain gauss, caching policies beat never-cache;")
    print("  - on the fine-grain neural net, always-replicate thrashes")
    print("    (every interleaved write invalidates replicas) while the")
    print("    freeze policy gives up and remote-maps -- cheaply;")
    print("  - read-only data makes every caching policy look the same.")
    print()
    print(MigrationCostModel.paper_constants().format_table1())


if __name__ == "__main__":
    main()
