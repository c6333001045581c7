"""The machine-readable benchmark result format: ``BENCH_<target>.json``.

One document per benchmark target per run.  The shape is deliberately
small and stable so results stay comparable PR-over-PR (the repo's perf
trajectory) and so CI can fail on malformed output:

::

    {
      "schema": "repro-bench/1",
      "target": "fig1_gauss",            # snake_case target name
      "title": "...",                    # human description
      "scale": "quick" | "full" | "smoke",
      "config": {...},                   # target-level configuration
      "points": [                        # one entry per swept config
        {"name": "p=4", "config": {...},
         "metrics": {...},               # counters: sim_time_ns, faults...
         "seed": 123, "wall_s": 0.41, "ok": true, "error": null}
      ],
      "derived": {...},                  # curves/tables computed from points
      "counters": {...},                 # aggregate_counters over all points
      "wall_clock_s": 1.9,               # total wall clock for the target
      "jobs": 4,                         # sweep parallelism used
      "telemetry": {...}                 # optional: summed metrics
                                         # registry summaries (additive
                                         # repro-bench/1 extension)
    }

``wall_clock_s``, ``jobs`` and each point's ``wall_s`` are the only
fields allowed to differ between a serial and a parallel run of the same
sweep; everything else is deterministic (see WALL_CLOCK_FIELDS and
:func:`strip_wall_clock`).

No external JSON-schema package is required: :data:`SHAPE` is checked by
:func:`repro.doc.check`, and :func:`validate_bench` adds the few rules a
shape cannot say.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional

from .. import doc as _doc

#: current schema identifier; bump on incompatible changes
SCHEMA = "repro-bench/1"

#: allowed values of the "scale" field
SCALES = ("smoke", "quick", "full")

#: fields that may legitimately differ between runs of the same sweep
WALL_CLOCK_FIELDS = ("wall_clock_s", "jobs")
POINT_WALL_CLOCK_FIELDS = ("wall_s",)

#: the document's shape; "telemetry" is the optional metrics summary
SHAPE = {
    "schema": str,
    "target": str,
    "title": str,
    "scale": str,
    "config": dict,
    "derived": dict,
    "counters": dict,
    "wall_clock_s": (int, float),
    "jobs": int,
    "telemetry?": {"points_with_telemetry": object, "counters": object},
    "points": [{
        "name": str,
        "config": dict,
        "wall_s": (int, float),
        "seed": int,
        "ok": bool,
        "metrics?": (dict, None),
        "error?": (str, None),
    }],
}

#: the shape of a wall-stripped document (what a snapshot embeds); a
#: full document conforms to it too
STRIPPED_SHAPE = {
    **{key: sub for key, sub in SHAPE.items()
       if key.rstrip("?") not in WALL_CLOCK_FIELDS},
    "points": [{key: sub for key, sub in SHAPE["points"][0].items()
                if key not in POINT_WALL_CLOCK_FIELDS}],
}


def validate_bench(doc: Any) -> list[str]:
    """Validate one BENCH document: its shape, then what a shape cannot
    say (the tag and scale values, a passed point's metrics, a failed
    point's error).  Returns a list of human-readable problems; an
    empty list means the document is valid."""
    problems = _doc.check(doc, SHAPE, "doc")
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(
            f"doc.schema: expected {SCHEMA!r}, got {doc['schema']!r}")
    if doc["scale"] not in SCALES:
        problems.append(
            f"doc.scale: expected one of {SCALES}, got {doc['scale']!r}")
    for i, point in enumerate(doc["points"]):
        if point["ok"] and not isinstance(point.get("metrics"), dict):
            problems.append(
                f"doc.points[{i}]: passed point must carry a "
                "'metrics' object")
        elif not point["ok"] and not isinstance(point.get("error"), str):
            problems.append(
                f"doc.points[{i}]: failed point must carry an "
                "'error' string")
    try:
        _doc.compact(doc)
    except (TypeError, ValueError) as exc:
        problems.append(f"doc is not JSON-serializable: {exc}")
    return problems


def strip_wall_clock(doc: dict) -> dict:
    """A deep copy of the document with every wall-clock-dependent field
    removed -- two runs of the same deterministic sweep must compare equal
    after this, whatever the parallelism."""
    return _doc.strip_named(doc, WALL_CLOCK_FIELDS,
                            "points", POINT_WALL_CLOCK_FIELDS)


def bench_path(results_dir: Path, target: str) -> Path:
    return Path(results_dir) / f"BENCH_{target}.json"


def write_bench(results_dir: Path, doc: dict) -> Path:
    """Validate and write one BENCH document; returns the path written."""
    problems = validate_bench(doc)
    if problems:
        raise ValueError(
            f"refusing to write invalid BENCH document for "
            f"{doc.get('target')!r}: " + "; ".join(problems)
        )
    return _doc.write(bench_path(results_dir, doc["target"]),
                      _doc.pretty(doc))


def load_bench(path: Path) -> dict:
    """Load and validate a BENCH document from disk."""
    doc = _doc.read(path, SCHEMA)
    problems = validate_bench(doc)
    if problems:
        raise _doc.DocError(f"{path}: " + "; ".join(problems))
    return doc


def make_doc(
    target: str,
    title: str,
    scale: str,
    config: dict,
    points: list[dict],
    derived: dict,
    counters: dict,
    wall_clock_s: float,
    jobs: int,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble a BENCH document (validation happens on write)."""
    doc = {
        "schema": SCHEMA,
        "target": target,
        "title": title,
        "scale": scale,
        "config": config,
        "points": points,
        "derived": derived,
        "counters": counters,
        "wall_clock_s": wall_clock_s,
        "jobs": jobs,
    }
    if extra:
        doc.update(extra)
    return doc
