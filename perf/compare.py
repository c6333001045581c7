"""``run.py --compare A.json B.json``: did B regress against A?

One row per workload x end-to-end metric: both values with the quartiles
of their per-process samples, the bound from ``BENCHMARK.json``, B over A
with its base, and a verdict.
A metric whose spread is wider than its bound is ``unresolved``, not
``ok``, unless every sample of one side lies beyond every sample of the
other.  Simulated time is compared exactly when both documents used the
same seed: a change that claims only simulator speed must leave it
identical, and ``sim_changed`` says whether the full simulated
statistics (the fingerprint) moved.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _spread(metric: dict) -> float:
    if not metric["quartiles"] or not metric["value"]:
        return 0.0
    q1, q3 = metric["quartiles"]
    return (q3 - q1) / abs(metric["value"])


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple:
    """``(verdict, worse)``: ``worse`` is how far B's value is on the
    bad side of A's, as a share of A's."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / abs(a["value"])
    sa = [sign * x for x in a["samples"]]
    sb = [sign * x for x in b["samples"]]
    if max(_spread(a), _spread(b)) > bound:
        # too noisy for the two values to decide: only a clean separation
        # of every sample does
        if min(sb) > max(sa) and worse > bound:
            return "regressed", worse
        if max(sb) < min(sa):
            return "ok", worse
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def _fail_metric(entry: dict) -> dict:
    return {"value": entry["fail_ratio"], "quartiles": None,
            "samples": [entry["fail_ratio"]]}


def compare_docs(a: dict, b: dict, catalogue: dict) -> list[dict]:
    rows = []
    same_seed = a["seed"] == b["seed"] and a["size"] == b["size"]
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        sim_changed = same_seed and (
            wa["sim_fingerprint"] != wb["sim_fingerprint"])
        for spec in catalogue["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            if metric == "sim_time_ms" and same_seed:
                bound = 0.0  # deterministic: any rise is a regression
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            v, worse = verdict(ma, mb, bound, spec["better"])
            rows.append({
                "workload": name, "metric": metric, "unit": spec["unit"],
                "a": ma, "b": mb, "bound": bound, "verdict": v,
                "worse": worse, "sim_changed": sim_changed,
            })
        fa, fb = _fail_metric(wa), _fail_metric(wb)
        rows.append({
            "workload": name, "metric": "fail_ratio",
            "unit": "failed/attempted", "a": fa, "b": fb, "bound": 0.0,
            "verdict": "regressed" if fb["value"] > fa["value"] else "ok",
            "worse": fb["value"] - fa["value"], "sim_changed": sim_changed,
        })
    return rows


def _cell(metric: dict) -> str:
    text = f"{metric['value']:.6g}"
    if metric["quartiles"]:
        text += " [{:.4g}, {:.4g}]".format(*metric["quartiles"])
    return text


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<13} {'metric':<18} {'A [q1, q3]':<34} "
             f"{'B [q1, q3]':<34} {'B/A':<24} {'bound':>6}  verdict"]
    for row in rows:
        base = row["a"]["value"]
        ratio = (f"{row['b']['value'] / base:.4f} of A={base:.6g}"
                 if base else f"A={base:.6g}")
        flag = "  sim_changed" if row["sim_changed"] else ""
        lines.append(
            f"{row['workload']:<13} {row['metric']:<18} "
            f"{_cell(row['a']):<34} {_cell(row['b']):<34} {ratio:<24} "
            f"{row['bound']:>6.2f}  {row['verdict']}{flag}")
    return "\n".join(lines)


def compare_files(path_a: str, path_b: str, catalogue: dict) -> int:
    """Print the comparison; exit status 1 when a metric regressed."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows = compare_docs(a, b, catalogue)
    print(format_rows(rows))
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("ok", "regressed", "unresolved")}
    spreads = [_spread(r[side]) for r in rows for side in ("a", "b")
               if r[side]["quartiles"]]
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved; widest spread "
          f"{max(spreads, default=0.0):.1%}, median spread "
          f"{statistics.median(spreads) if spreads else 0.0:.1%}")
    return 1 if counts["regressed"] else 0
