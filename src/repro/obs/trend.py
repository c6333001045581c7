"""Perf-trajectory tracking: compare BENCH documents across runs.

``repro obs trend A B [C ...]`` (and ``repro bench --compare BASELINE``)
consume a series of benchmark outputs -- combined
``repro-bench-snapshot/1`` files, single ``repro-bench/1`` documents, or
results directories of ``BENCH_*.json`` -- and emit a ``repro-trend/1``
verdict document comparing each consecutive pair:

* **determinism drift** -- the sim-time-derived fields (simulated time,
  counters, derived tables) are compared for *equality* after
  ``strip_wall_clock``: the simulator is seeded and byte-deterministic,
  so any difference is a behaviour change, not noise.  Sim-time fields
  are thereby excluded from the noise-aware deltas below.
* **wall-clock regressions** -- ``wall_clock_s`` per target, ``wall_s``
  and events/second (``events_executed / wall_s``) per point, compared
  with a noise-aware tolerance: a regression is flagged only when the
  baseline ran for at least ``min_wall_s`` (tiny points are all noise)
  and the ratio exceeds ``wall_tolerance``.  Committed snapshots have
  their wall fields stripped, so comparisons against them skip this
  layer and check drift only.

The gate passes (exit 0) when no pair drifted or regressed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .. import doc as _doc
from ..bench.schema import SCHEMA as BENCH_SCHEMA
from ..bench.schema import STRIPPED_SHAPE, strip_wall_clock
from ..bench.snapshot import SHAPE as SNAPSHOT_SHAPE
from ..bench.snapshot import SNAPSHOT_SCHEMA

#: schema tag of the trend verdict document
TREND_SCHEMA = "repro-trend/1"

#: a current/baseline wall ratio above this is a regression (and below
#: its inverse, an improvement); chosen loose enough that CI runner
#: noise passes and a 2x slowdown reliably fails
DEFAULT_WALL_TOLERANCE = 1.5

#: baseline walls shorter than this are pure noise: never judged
DEFAULT_MIN_WALL_S = 0.05

#: cap on reported drift paths per target
_MAX_DIFFS = 8


class TrendError(_doc.DocError):
    """Unreadable or non-comparable trend inputs."""


# -- input normalization -------------------------------------------------------

def load_perf_doc(path: Union[str, Path]) -> dict:
    """Normalize one trend input to ``{"source", "scale", "targets"}``.

    Accepts a ``repro-bench-snapshot/1`` file, a single ``repro-bench/1``
    document, or a directory containing ``BENCH_*.json`` files.
    """
    path = Path(path)
    if path.is_dir():
        targets: dict = {}
        scale = None
        for file in sorted(path.glob("BENCH_*.json")):
            doc = _doc.read(file, error=TrendError)
            if doc.get("schema") != BENCH_SCHEMA:
                continue
            _doc.expect(doc, file, shape=STRIPPED_SHAPE, error=TrendError)
            targets[doc["target"]] = doc
            scale = doc["scale"]
        if not targets:
            raise TrendError(f"{path}: no BENCH_*.json documents inside")
        return {"source": str(path), "scale": scale, "targets": targets}
    doc = _doc.read(path, error=TrendError)
    if doc.get("schema") == SNAPSHOT_SCHEMA:
        _doc.expect(doc, path, shape=SNAPSHOT_SHAPE, error=TrendError)
        targets = doc["targets"]
    else:
        _doc.expect(doc, path, BENCH_SCHEMA, STRIPPED_SHAPE, TrendError)
        targets = {doc["target"]: doc}
    return {"source": str(path), "scale": doc.get("scale"),
            "targets": targets}


# -- deep equality with paths --------------------------------------------------

def _diff_paths(a, b, path: str, out: list[str]) -> None:
    if len(out) >= _MAX_DIFFS:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                out.append(f"{path}.{key}: added")
            elif key not in b:
                out.append(f"{path}.{key}: removed")
            else:
                _diff_paths(a[key], b[key], f"{path}.{key}", out)
            if len(out) >= _MAX_DIFFS:
                return
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} -> {len(b)}")
            return
        for i, (ai, bi) in enumerate(zip(a, b)):
            _diff_paths(ai, bi, f"{path}[{i}]", out)
            if len(out) >= _MAX_DIFFS:
                return
    elif a != b:
        out.append(f"{path}: {a!r} -> {b!r}")


# -- pairwise comparison -------------------------------------------------------

def _wall_verdict(base: Optional[float], cur: Optional[float],
                  tolerance: float, min_wall_s: float) -> dict:
    """Noise-aware verdict on one wall-clock figure pair."""
    if not isinstance(base, (int, float)) \
            or not isinstance(cur, (int, float)):
        return {"verdict": "skipped"}
    if base < min_wall_s:
        return {"baseline_s": base, "current_s": cur,
                "verdict": "below_noise_floor"}
    ratio = cur / base if base else float("inf")
    verdict = "ok"
    if ratio > tolerance:
        verdict = "regression"
    elif ratio < 1.0 / tolerance:
        verdict = "improvement"
    return {"baseline_s": base, "current_s": cur,
            "ratio": round(ratio, 4), "verdict": verdict}


def _events_per_sec(point: dict) -> Optional[float]:
    metrics = point.get("metrics")
    wall = point.get("wall_s")
    if not isinstance(metrics, dict) or not isinstance(
            wall, (int, float)) or wall <= 0:
        return None
    events = metrics.get("events_executed")
    if not isinstance(events, (int, float)) or events <= 0:
        return None
    return events / wall


def _step(base_label, cur_label, scale, base_views: dict,
          cur_views: dict, drift, wall_tolerance: float,
          min_wall_s: float) -> dict:
    """One ``repro-trend/1`` comparison.  A view is a target's
    ``(wall_clock_s, {point name: (wall_s, events/s)})``; ``drift(name)``
    lists the deterministic differences of a target both sides have."""
    targets: dict = {}
    drifted: list[str] = []
    regressions: list[str] = []
    for name in sorted(set(base_views) & set(cur_views)):
        diffs = drift(name)
        if diffs:
            drifted.append(name)
        base_wall, base_points = base_views[name]
        cur_wall, cur_points = cur_views[name]
        wall = _wall_verdict(base_wall, cur_wall,
                             wall_tolerance, min_wall_s)
        if wall["verdict"] == "regression":
            regressions.append(f"{name}.wall_clock_s")
        points: dict = {}
        for pname, (cur_s, cur_eps) in cur_points.items():
            if pname not in base_points:
                continue
            base_s, base_eps = base_points[pname]
            p_wall = _wall_verdict(base_s, cur_s,
                                   wall_tolerance, min_wall_s)
            entry: dict = {"wall": p_wall}
            if p_wall["verdict"] == "regression":
                regressions.append(f"{name}::{pname}.wall_s")
            if isinstance(base_eps, (int, float)) \
                    and isinstance(cur_eps, (int, float)) \
                    and isinstance(base_s, (int, float)) \
                    and base_s >= min_wall_s:
                ratio = base_eps / cur_eps if cur_eps else float("inf")
                eps_verdict = "ok"
                if ratio > wall_tolerance:
                    eps_verdict = "regression"
                    regressions.append(f"{name}::{pname}.events_per_s")
                elif ratio < 1.0 / wall_tolerance:
                    eps_verdict = "improvement"
                entry["events_per_s"] = {
                    "baseline": round(base_eps, 1),
                    "current": round(cur_eps, 1),
                    "slowdown": round(ratio, 4),
                    "verdict": eps_verdict,
                }
            points[pname] = entry
        targets[name] = {"drift": diffs, "wall": wall, "points": points}
    missing = sorted(set(base_views) - set(cur_views))
    return {
        "schema": TREND_SCHEMA,
        "baseline": base_label,
        "current": cur_label,
        "scale": scale,
        "wall_tolerance": wall_tolerance,
        "min_wall_s": min_wall_s,
        "targets": targets,
        "missing_targets": missing,
        "added_targets": sorted(set(cur_views) - set(base_views)),
        "drifted": drifted,
        "regressions": regressions,
        "ok": not drifted and not regressions and not missing,
    }


def _bench_views(targets: dict) -> dict:
    return {
        name: (doc.get("wall_clock_s"),
               {p.get("name"): (p.get("wall_s"), _events_per_sec(p))
                for p in doc.get("points", []) if isinstance(p, dict)})
        for name, doc in targets.items()
    }


def compare_targets(
    baseline: dict,
    current: dict,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    min_wall_s: float = DEFAULT_MIN_WALL_S,
) -> dict:
    """Compare two normalized perf docs (see :func:`load_perf_doc`)."""
    if baseline.get("scale") and current.get("scale") \
            and baseline["scale"] != current["scale"]:
        raise TrendError(
            f"cannot compare scales: baseline is "
            f"{baseline['scale']!r}, current is {current['scale']!r}"
        )
    base_targets = baseline["targets"]
    cur_targets = current["targets"]

    def drift(name: str) -> list[str]:
        diffs: list[str] = []
        _diff_paths(strip_wall_clock(base_targets[name]),
                    strip_wall_clock(cur_targets[name]), name, diffs)
        return diffs

    return _step(
        baseline.get("source"), current.get("source"),
        current.get("scale") or baseline.get("scale"),
        _bench_views(base_targets), _bench_views(cur_targets), drift,
        wall_tolerance, min_wall_s)


def trend_series(
    paths: list,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    min_wall_s: float = DEFAULT_MIN_WALL_S,
) -> dict:
    """Compare each consecutive pair in a series of trend inputs."""
    if len(paths) < 2:
        raise TrendError("trend needs at least two documents to compare")
    docs = [load_perf_doc(p) for p in paths]
    steps = [
        compare_targets(docs[i], docs[i + 1],
                        wall_tolerance=wall_tolerance,
                        min_wall_s=min_wall_s)
        for i in range(len(docs) - 1)
    ]
    return {
        "schema": TREND_SCHEMA,
        "series": [d["source"] for d in docs],
        "steps": steps,
        "ok": all(step["ok"] for step in steps),
    }


def _history_views(summary: dict) -> dict:
    walls = summary.get("wall", {}).get("bench", {})
    return {
        name: (walls.get(name, {}).get("wall_clock_s"),
               {pname: (row.get("wall_s"), row.get("events_per_s"))
                for pname, row in walls.get(name, {}).get(
                    "points", {}).items()})
        for name in summary.get("bench", {}).get("targets", {})
    }


def _history_step(
    base: dict,
    cur: dict,
    wall_tolerance: float,
    min_wall_s: float,
) -> dict:
    """One consecutive-pair comparison over ``repro-run/1`` summaries.

    The history store keeps content *hashes* of wall-stripped BENCH
    docs rather than the docs themselves, so drift here is hash
    inequality (any difference is a behaviour change -- same contract
    as the full diff, less detail).  Wall figures come from the
    summary's quarantined ``wall.bench`` section.
    """
    base_targets = base.get("bench", {}).get("targets", {})
    cur_targets = cur.get("bench", {}).get("targets", {})

    def drift(name: str) -> list[str]:
        before = base_targets[name].get("sha256")
        after = cur_targets[name].get("sha256")
        return [] if before == after else [
            f"{name}.sha256: {before!r} -> {after!r}"]

    return _step(
        f"run {base.get('run')}", f"run {cur.get('run')}",
        cur.get("extras", {}).get("scale")
        or base.get("extras", {}).get("scale"),
        _history_views(base), _history_views(cur), drift,
        wall_tolerance, min_wall_s)


def trend_history(
    summaries: list,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    min_wall_s: float = DEFAULT_MIN_WALL_S,
) -> dict:
    """Series gating over history-store ``repro-run/1`` summaries.

    Only bench-carrying summaries participate (a ``repro run`` between
    two ``repro bench`` runs has nothing to compare); at least two are
    required.  Same verdict document shape as :func:`trend_series`.
    """
    docs = [s for s in summaries
            if s.get("bench", {}).get("targets")]
    if len(docs) < 2:
        raise TrendError(
            "history trend needs at least two bench-carrying run "
            f"summaries (have {len(docs)})"
        )
    steps = [
        _history_step(docs[i], docs[i + 1],
                      wall_tolerance, min_wall_s)
        for i in range(len(docs) - 1)
    ]
    return {
        "schema": TREND_SCHEMA,
        "series": [f"run {d.get('run')}" for d in docs],
        "steps": steps,
        "ok": all(step["ok"] for step in steps),
    }


# -- rendering -----------------------------------------------------------------

def render_trend(doc: dict) -> str:
    """Human-readable report for one comparison or a whole series."""
    steps = doc.get("steps", [doc])
    lines: list[str] = []
    for step in steps:
        lines.append(
            f"{step.get('baseline')} -> {step.get('current')} "
            f"[scale={step.get('scale')}]"
        )
        for name in step.get("missing_targets", []):
            lines.append(f"  {name}: MISSING from the newer run")
        for name, target in step.get("targets", {}).items():
            wall = target["wall"]
            if "ratio" in wall:
                wall_text = (
                    f"wall {wall['baseline_s']:.2f}s -> "
                    f"{wall['current_s']:.2f}s "
                    f"(x{wall['ratio']:.2f}, {wall['verdict']})"
                )
            else:
                wall_text = f"wall {wall['verdict']}"
            drift_text = (
                f"{len(target['drift'])} drifted field(s)"
                if target["drift"] else "deterministic fields identical"
            )
            lines.append(f"  {name}: {drift_text}; {wall_text}")
            for path in target["drift"]:
                lines.append(f"    drift: {path}")
            for pname, entry in target["points"].items():
                eps = entry.get("events_per_s")
                p_wall = entry["wall"]
                if p_wall.get("verdict") == "regression" \
                        or (eps and eps["verdict"] == "regression"):
                    detail = (
                        f"    {pname}: wall "
                        f"{p_wall.get('baseline_s')}s -> "
                        f"{p_wall.get('current_s')}s"
                    )
                    if eps:
                        detail += (
                            f", {eps['baseline']:.0f} -> "
                            f"{eps['current']:.0f} events/s"
                        )
                    lines.append(detail + "  REGRESSION")
        verdict = "ok" if step["ok"] else (
            "REGRESSION" if step["regressions"] else "DRIFT"
        )
        summary = (
            f"  => {verdict}: {len(step['drifted'])} drifted "
            f"target(s), {len(step['regressions'])} wall "
            f"regression(s)"
        )
        lines.append(summary)
    return "\n".join(lines)
