"""Orchestrate benchmark targets into ``BENCH_<target>.json`` documents.

All selected targets are expanded into one flat task list and run
through a single :class:`~repro.bench.sweep.SweepRunner`, so a
``--jobs 4`` sweep keeps its workers busy across target boundaries (the
single-point analytic targets would otherwise serialize the sweep).
Results are grouped back per target, reduced by the target's ``derive``
function, validated against the schema and written to the results
directory as JSON plus a small text report.

Per-task seeds are derived from the fully qualified ``target::point``
name, so a point's seed is identical whether it runs through
:func:`run_bench` serially or in parallel.
"""

from __future__ import annotations

import fnmatch
from pathlib import Path
from typing import Callable, Optional

from ..analysis.costmodel import aggregate_counters
from ..obs import PoolHealth, get_ledger
from ..obs import span as obs_span
from ..obs import tick as obs_tick
from .schema import make_doc, validate_bench, write_bench
from .sweep import SweepRunner, Task, TaskResult, task_seed
# importing the targets also loads the simulator, which fork children
# then inherit instead of re-importing
from .targets import TARGETS, BenchTarget

#: default per-point wall-clock timeout by scale (seconds)
DEFAULT_TIMEOUT_S = {"smoke": 120.0, "quick": 600.0, "full": 3600.0}


def validate_scale(scale: str) -> str:
    """Reject an unknown scale with a one-line error *before* any
    timeout lookup or task expansion can raise a raw ``KeyError``."""
    if scale not in DEFAULT_TIMEOUT_S:
        raise ValueError(
            f"unknown scale {scale!r} "
            f"(have: {', '.join(DEFAULT_TIMEOUT_S)})"
        )
    return scale


def select_targets(filter_pattern: Optional[str] = None) -> list[str]:
    """Target names matching ``--filter`` (substring or fnmatch glob)."""
    names = list(TARGETS)
    if not filter_pattern:
        return names
    return [
        name
        for name in names
        if filter_pattern in name
        or fnmatch.fnmatch(name, filter_pattern)
    ]


def _build_tasks(
    names: list[str],
    scale: str,
    base_seed: int,
    timeout_s: Optional[float],
) -> tuple[list[Task], dict[str, dict], dict[str, dict]]:
    """Expand targets into one flat, uniquely named task list.

    Returns (tasks, {target: config}, {task name: spec}).
    """
    validate_scale(scale)
    if timeout_s is None:
        timeout_s = DEFAULT_TIMEOUT_S[scale]
    tasks: list[Task] = []
    configs: dict[str, dict] = {}
    specs: dict[str, dict] = {}
    for name in names:
        target = TARGETS[name]
        config, points = target.points(scale)
        configs[name] = config
        for point_name, spec in points:
            full = f"{name}::{point_name}"
            specs[full] = spec
            tasks.append(Task(
                name=full,
                spec=spec,
                seed=task_seed(base_seed, full),
                timeout_s=timeout_s,
            ))
    return tasks, configs, specs


def _aggregate_telemetry(ok_metrics: dict[str, dict]) -> Optional[dict]:
    """Sum the per-point ``telemetry`` summaries (see
    ``MetricsRegistry.summary``) into one doc-level block, or ``None``
    when no point carried one."""
    counters: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    n = 0
    for metrics in ok_metrics.values():
        summary = metrics.get("telemetry")
        if not isinstance(summary, dict):
            continue
        n += 1
        for key, value in summary.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, h in summary.get("histograms", {}).items():
            agg = histograms.setdefault(key, {"count": 0, "sum": 0.0})
            agg["count"] += h.get("count", 0)
            agg["sum"] += h.get("sum", 0.0)
    if not n:
        return None
    return {
        "points_with_telemetry": n,
        "counters": {k: counters[k] for k in sorted(counters)},
        "histograms": {k: histograms[k] for k in sorted(histograms)},
    }


def _group_results(
    names: list[str],
    results: list[TaskResult],
    configs: dict[str, dict],
    specs: dict[str, dict],
    scale: str,
    jobs: int,
) -> dict[str, dict]:
    """Reduce flat sweep results into one BENCH document per target."""
    by_target: dict[str, list[TaskResult]] = {name: [] for name in names}
    for result in results:
        target_name, _, _point = result.name.partition("::")
        by_target[target_name].append(result)
    docs: dict[str, dict] = {}
    for name in names:
        target: BenchTarget = TARGETS[name]
        target_results = by_target[name]
        points = []
        ok_metrics: dict[str, dict] = {}
        for result in target_results:
            _, _, point_name = result.name.partition("::")
            point = result.to_point(config=specs[result.name])
            point["name"] = point_name
            points.append(point)
            if result.ok:
                ok_metrics[point_name] = result.value
        telemetry = _aggregate_telemetry(ok_metrics)
        docs[name] = make_doc(
            target=name,
            title=target.title,
            scale=scale,
            config=configs[name],
            points=points,
            derived=target.derive(ok_metrics),
            counters=aggregate_counters(ok_metrics.values()),
            wall_clock_s=round(
                sum(r.wall_s for r in target_results), 4
            ),
            jobs=jobs,
            extra={"telemetry": telemetry} if telemetry else None,
        )
    return docs


def _ledger_points(results: list[TaskResult], parent) -> None:
    """Append one ``bench.point`` span per sweep result.

    Results arrive in task order (the sweep runner's contract), so span
    ids are assigned deterministically even for parallel sweeps whose
    *completion* order is nondeterministic.  Everything timing- or
    placement-dependent lives under the record's ``wall`` key; the
    stripped remainder is byte-stable across reruns.
    """
    ledger = get_ledger()
    if ledger is None:
        return
    for result in results:
        attrs = {
            "task": result.name,
            "seed": result.seed,
            "ok": result.ok,
            "timed_out": result.timed_out,
        }
        wall = {
            "dur_s": round(result.wall_s, 4),
            "queue_wait_s": round(result.queue_wait_s, 6),
        }
        if result.worker is not None:
            wall["worker"] = result.worker
        seg = result.span or {}
        for key in ("pid", "t0_s", "exec_dur_s"):
            if key in seg:
                wall[key] = seg[key]
        ledger.append_span(
            "bench.point", attrs=attrs, wall=wall, parent=parent,
            status="ok" if result.ok else "error",
        )


def run_bench(
    scale: str = "quick",
    jobs: int = 1,
    filter_pattern: Optional[str] = None,
    base_seed: int = 0,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[TaskResult], None]] = None,
    health: Optional[PoolHealth] = None,
) -> tuple[dict[str, dict], "SweepRunner"]:
    """Run every selected target as one combined sweep.

    Returns ``({target: BENCH document}, runner)`` -- the runner carries
    the ``degraded`` flag for callers that report on it.  When a run
    ledger is active (``repro --ledger``), the sweep runs inside a
    ``bench.sweep`` span and each point gets a ``bench.point`` span.
    """
    validate_scale(scale)
    names = select_targets(filter_pattern)
    if not names:
        raise ValueError(
            f"--filter {filter_pattern!r} matches no target "
            f"(have: {', '.join(TARGETS)})"
        )
    tasks, configs, specs = _build_tasks(
        names, scale, base_seed, timeout_s
    )
    if health is None:
        health = PoolHealth()
    # in-flight progress ticks for `repro obs ledger --follow`: one
    # wall-only record per finished point, dropped by strip_wall_ledger
    done = 0
    caller_progress = progress

    def progress(result: TaskResult) -> None:
        nonlocal done
        done += 1
        obs_tick(
            "bench.progress", task=result.name, ok=result.ok,
            done=done, total=len(tasks),
            dur_s=round(result.wall_s, 4),
        )
        if caller_progress is not None:
            caller_progress(result)

    with obs_span(
        "bench.sweep", scale=scale,
        targets=len(names), tasks=len(tasks),
    ) as sweep_span:
        # jobs is parallelism-dependent, like the BENCH doc's "jobs"
        # wall-clock field: keep it out of the rerun-stable attrs
        sweep_span.wall["jobs"] = jobs
        runner = SweepRunner(
            jobs=jobs,
            progress=progress,
            health=health,
            span_parent=sweep_span.sid,
        )
        results = runner.run(tasks)
        _ledger_points(results, parent=sweep_span.sid)
        ledger = get_ledger()
        if ledger is not None:
            ledger.event("pool.summary", parent=sweep_span.sid,
                         **health.summary())
        sweep_span.attrs["failed"] = sum(
            1 for r in results if not r.ok
        )
    docs = _group_results(names, results, configs, specs, scale, jobs)
    return docs, runner


def evaluate_checks(doc: dict) -> list[tuple]:
    """``(check, holds, measured, claimed)`` for each reproduction check
    of a document's target, read off the document alone.  A check the
    run did not measure (a failed point, a scale that omits its data)
    does not hold."""
    target = TARGETS.get(doc["target"])
    ok = {p["name"]: p["metrics"] for p in doc["points"] if p["ok"]}
    rows = []
    for check in target.checks if target else ():
        try:
            holds, measured = check.test(doc["derived"], ok)
        except LookupError as exc:
            holds, measured = False, f"not measured ({exc})"
        rows.append((check, holds, measured, doc["scale"] in check.scales))
    return rows


def render_checks(doc: dict) -> str:
    """Paper figure, measured figure and verdict, check by check."""
    lines = []
    for check, holds, measured, claimed in evaluate_checks(doc):
        verdict = "ok" if holds else "FALSE" if claimed else "false"
        lines += [
            f"  [{verdict}] {check.name}  "
            f"(claimed at {', '.join(check.scales)})",
            f"    paper:    {check.paper}",
            f"    measured: {measured}",
            "",
        ]
    return "\n".join(lines)


def render_text(doc: dict) -> str:
    """The paper-vs-measured report for one BENCH document."""
    lines = [
        f"{doc['target']} -- {doc['title']}",
        f"scale={doc['scale']}  points={len(doc['points'])}  "
        f"wall={doc['wall_clock_s']:.2f}s  jobs={doc['jobs']}",
        "",
    ]
    for point in doc["points"]:
        if point["ok"]:
            m = point["metrics"]
            detail = (
                f"{m['sim_time_ms']:.3f} ms simulated"
                if isinstance(m, dict) and "sim_time_ms" in m
                else "ok"
            )
        else:
            detail = "FAILED: " + (point["error"] or "?").strip()
            detail = detail.splitlines()[-1]
        lines.append(
            f"  {point['name']:<28} {detail}  ({point['wall_s']:.2f}s)"
        )
    return "\n".join(lines) + "\n\n" + render_checks(doc)


def false_checks(docs: dict[str, dict]) -> list[str]:
    """One line per check that is claimed at its run's scale and false."""
    return [
        f"{name}: check {check.name} is false at scale {doc['scale']} "
        f"(paper: {check.paper}; measured: {measured})"
        for name, doc in docs.items()
        for check, holds, measured, claimed in evaluate_checks(doc)
        if claimed and not holds
    ]


def write_results(
    docs: dict[str, dict],
    results_dir: Path,
) -> list[Path]:
    """Validate and write every document (JSON + text report)."""
    results_dir = Path(results_dir)
    written: list[Path] = []
    for name, doc in docs.items():
        written.append(write_bench(results_dir, doc))
        text_path = results_dir / f"{name}.txt"
        text_path.write_text(render_text(doc))
        written.append(text_path)
    return written


def summarize(docs: dict[str, dict]) -> tuple[int, int, list[str]]:
    """(total points, failed points, schema problems) over documents."""
    total = failed = 0
    problems: list[str] = []
    for name, doc in docs.items():
        for point in doc["points"]:
            total += 1
            if not point["ok"]:
                failed += 1
        problems += [f"{name}: {p}" for p in validate_bench(doc)]
    return total, failed, problems
