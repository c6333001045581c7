"""The parallel benchmark sweep: targets, schema and runner.

``repro bench`` (see :mod:`repro.cli`) expands every benchmark target --
one per paper figure/table plus the repo's ablations -- into a flat list
of independent, deterministic simulation points, shards them across
worker processes, and writes one machine-readable ``BENCH_<target>.json``
per target (plus a paper-vs-measured report) to the git-ignored
``benchmarks/results/``.

Submodules
----------
``schema``
    The ``repro-bench/1`` document format, validator and I/O helpers.
``sweep``
    The process-parallel task runner (timeouts, seeding, degradation).
``targets``
    The target registry and the ``execute_point`` dispatcher.
``runner``
    Orchestration: targets -> sweep -> validated documents on disk.
``snapshot``
    The committed one-file snapshot (``BENCH_smoke.json``) with
    wall-clock fields stripped for byte-stable comparison.
"""

from .runner import (
    false_checks,
    render_checks,
    render_text,
    run_bench,
    select_targets,
    summarize,
    write_results,
)
from .schema import (
    SCHEMA,
    bench_path,
    load_bench,
    make_doc,
    strip_wall_clock,
    validate_bench,
    write_bench,
)
from .snapshot import (
    SNAPSHOT_SCHEMA,
    load_snapshot,
    snapshot_doc,
    write_snapshot,
)
from .sweep import (
    SweepRunner,
    Task,
    TaskResult,
    make_tasks,
    run_sweep,
    task_seed,
)
from .targets import TARGETS, execute_point
