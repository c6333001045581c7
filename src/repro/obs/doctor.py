"""The coherence doctor: streaming anomaly detectors over one run.

Paper section 4.2 is a diagnosis story: the PLATINUM programmers
*noticed* a page that was invalidated right after every thaw, read the
per-page instrumentation, and named the disease -- false sharing.  The
profiler (``repro explain``) automates the attribution half of that
story; this module automates the *noticing*.  ``repro doctor`` runs a
catalog of detectors over the same :class:`~repro.profile.ProfileSource`
event stream (plus, optionally, sim-time sampler rows and worker-pool
health) and emits a deterministic ``repro-findings/1`` report:

``false_sharing``
    The section 4.2 signature: a page whose thaw is followed within the
    freeze window by a fresh invalidation (a re-freeze or an invalidate
    shootdown), matched on timestamps so a re-invalidation landing at
    the very thaw instant still counts.  Each thaw->invalidate round
    trip is one *ping-pong cycle*; cycling pages are diagnosed, ranked
    by the profiler's own attributed cost (then cycles, then faults),
    so on the sec42 anecdote the top finding mechanically names the
    same page ``repro explain`` ranks #1 (CI asserts this).
``shootdown_storm``
    The Mitosis-scale signature: a burst of TLB shootdowns dense enough
    to serialize the machine.  A sliding window over shootdown events
    finds the peak; the finding reports the peak rate and the page
    contributing most inside the peak window.
``frozen_thrash``
    A page freezing and thawing over and over: every cycle pays the
    freeze bookkeeping and forces remote references while frozen.
    Reports cycle count and the fraction of the run spent frozen.
``defrost_starvation``
    A frozen interval far longer than the defrost period ``t2``: the
    daemon is off, too slow, or the page is being re-frozen before the
    daemon reaches it -- remote references pile up meanwhile.
``pool_wall``
    The tooling's own pathology (stalls, timeouts, worker deaths,
    respawns) from a :class:`~repro.obs.health.PoolHealth` summary or a
    ``repro-events/1`` ledger.  Wall-clock data: these findings live
    under the report's ``wall`` key, quarantined exactly like every
    other wall-dependent field in the repo.

Determinism contract: everything outside the report's ``wall`` key
derives from simulated work only, so two doctor passes over the same
seed produce byte-identical reports (:func:`strip_wall_findings` drops
the ``wall`` layer for cross-run comparison).  Each finding is also
emitted as a ``doctor.finding`` event on the ambient run ledger.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import doc as _doc
from . import ledger as _ledger

#: schema tag of the doctor's report document
DOCTOR_SCHEMA = "repro-findings/1"

#: detector names in canonical (report) order
DETECTOR_ORDER = (
    "false_sharing",
    "shootdown_storm",
    "frozen_thrash",
    "defrost_starvation",
    "pool_wall",
)

#: the sim-event detectors (everything except the wall-quarantined one)
SIM_DETECTORS = DETECTOR_ORDER[:-1]

#: default detector thresholds; override via ``diagnose(config=...)``
DEFAULT_CONFIG = {
    # false_sharing: a thaw->invalidate gap under this window is one
    # ping-pong cycle; None means "use the run's t1 freeze window"
    "false_sharing_window_ns": None,
    "false_sharing_min_cycles": 1,
    # shootdown_storm: peak shootdowns within window_ns to diagnose
    "storm_window_ns": 1_000_000,
    "storm_min_count": 24,
    # frozen_thrash: freeze/thaw cycles to diagnose
    "thrash_min_cycles": 4,
    # defrost_starvation: frozen interval > factor * t2 is starvation
    "starvation_factor": 2.0,
}


class DoctorError(_doc.DocError):
    """Unusable doctor input (unknown detector, nothing to examine)."""


def _window_ns(config: dict, params: dict) -> int:
    window = config["false_sharing_window_ns"]
    if window is None:
        window = params.get("t1_freeze_window") or 10e6
    return int(window)


def _severity(score: float, critical_at: float) -> str:
    return "critical" if score >= critical_at else "warning"


def _label(source, cpage: int) -> str:
    return source.page_labels.get(cpage, f"cpage{cpage}")


# -- the event-stream detectors ------------------------------------------------

def _attributed_ns(source) -> dict[int, int]:
    """Per-page attributed protocol cost, the profiler's own accounting."""
    from ..profile.attribution import compute_attribution

    att = compute_attribution(source)
    return {c: cats.get("total", 0) for c, cats in att.per_page.items()}


def _detect_false_sharing(source, config: dict) -> list[dict]:
    window = _window_ns(config, source.params)
    min_cycles = config["false_sharing_min_cycles"]
    thaw_times: dict[int, list[int]] = {}
    inval_times: dict[int, list[int]] = {}
    thaws: dict[int, int] = {}
    freezes: dict[int, int] = {}
    faults: dict[int, int] = {}
    for event in source.events:
        cpage = event.get("cpage")
        if cpage is None:
            continue
        kind = event["kind"]
        if kind == "fault":
            faults[cpage] = faults.get(cpage, 0) + 1
        elif kind == "thaw":
            thaws[cpage] = thaws.get(cpage, 0) + 1
            thaw_times.setdefault(cpage, []).append(event["time"])
        elif kind == "freeze" or (
            kind == "shootdown"
            and event["detail"].get("directive") == "invalidate"
        ):
            if kind == "freeze":
                freezes[cpage] = freezes.get(cpage, 0) + 1
            inval_times.setdefault(cpage, []).append(event["time"])
    # Match each invalidation to the latest thaw at or before it.  "At":
    # the defrost thaw and the write fault that re-invalidates the page
    # can land on the same simulated instant, with the shootdown
    # serialized ahead of the thaw record -- timestamp order, not stream
    # order, is what the section 4.2 programmers eyeballed.
    cycles: dict[int, int] = {}
    gaps: dict[int, list[int]] = {}
    for cpage, invals in inval_times.items():
        page_thaws = thaw_times.get(cpage, [])
        ti = 0
        pending: Optional[int] = None
        for t in invals:
            while ti < len(page_thaws) and page_thaws[ti] <= t:
                pending = page_thaws[ti]  # a newer thaw supersedes
                ti += 1
            if pending is not None and t - pending <= window:
                cycles[cpage] = cycles.get(cpage, 0) + 1
                gaps.setdefault(cpage, []).append(t - pending)
                pending = None  # each thaw pays for one cycle
    attributed = _attributed_ns(source)
    findings = []
    suspects = sorted(
        (c for c, n in cycles.items() if n >= min_cycles),
        key=lambda c: (-attributed.get(c, 0), -cycles[c],
                       -faults.get(c, 0), c),
    )
    for rank, cpage in enumerate(suspects):
        n = cycles[cpage]
        page_gaps = gaps[cpage]
        mean_gap = sum(page_gaps) // len(page_gaps)
        label = _label(source, cpage)
        evidence = {
            "cycles": n,
            "mean_reinval_gap_ns": mean_gap,
            "max_reinval_gap_ns": max(page_gaps),
            "window_ns": window,
            "thaws": thaws.get(cpage, 0),
            "freezes": freezes.get(cpage, 0),
            "faults": faults.get(cpage, 0),
        }
        if cpage in attributed:
            evidence["attributed_ns"] = attributed[cpage]
        findings.append({
            "detector": "false_sharing",
            "severity": "critical" if rank == 0 or n >= 3
            else "warning",
            "cpage": cpage,
            "label": label,
            "summary": (
                f"cpage {cpage} ({label}): invalidated within "
                f"{mean_gap / 1e6:.3f} ms of thaw, {n} time(s) -- the "
                "section 4.2 ping-pong signature; consider remote-"
                "mapping this page"
            ),
            "evidence": evidence,
        })
    return findings


def _detect_shootdown_storm(source, config: dict) -> list[dict]:
    window = config["storm_window_ns"]
    min_count = config["storm_min_count"]
    shots = [(e["time"], e.get("cpage"))
             for e in source.events if e["kind"] == "shootdown"]
    if len(shots) < min_count:
        return []
    peak = 0
    peak_lo = 0
    lo = 0
    for hi in range(len(shots)):
        while shots[hi][0] - shots[lo][0] > window:
            lo += 1
        if hi - lo + 1 > peak:
            peak = hi - lo + 1
            peak_lo = lo
    if peak < min_count:
        return []
    in_peak = shots[peak_lo:peak_lo + peak]
    by_page: dict[int, int] = {}
    for _, cpage in in_peak:
        if cpage is not None:
            by_page[cpage] = by_page.get(cpage, 0) + 1
    top_page = min(
        (c for c in by_page), key=lambda c: (-by_page[c], c),
        default=None,
    )
    evidence = {
        "peak_count": peak,
        "window_ns": window,
        "peak_t0_ns": in_peak[0][0],
        "total_shootdowns": len(shots),
    }
    summary = (
        f"{peak} shootdowns within {window / 1e6:.1f} ms "
        f"(of {len(shots)} total)"
    )
    if top_page is not None:
        evidence["top_cpage"] = top_page
        evidence["top_cpage_count"] = by_page[top_page]
        summary += (
            f"; cpage {top_page} ({_label(source, top_page)}) "
            f"contributes {by_page[top_page]}"
        )
    return [{
        "detector": "shootdown_storm",
        "severity": _severity(peak, critical_at=2 * min_count),
        "cpage": top_page,
        "label": _label(source, top_page) if top_page is not None
        else None,
        "summary": summary,
        "evidence": evidence,
    }]


def _frozen_intervals(source) -> dict[int, list[int]]:
    """Per page, the lengths of its frozen intervals (an interval still
    open at the end of the run is closed at ``sim_time_ns``)."""
    open_at: dict[int, int] = {}
    intervals: dict[int, list[int]] = {}
    for event in source.events:
        cpage = event.get("cpage")
        if cpage is None:
            continue
        if event["kind"] == "freeze":
            open_at.setdefault(cpage, event["time"])
        elif event["kind"] == "thaw":
            since = open_at.pop(cpage, None)
            if since is not None:
                intervals.setdefault(cpage, []).append(
                    event["time"] - since)
    for cpage, since in open_at.items():
        intervals.setdefault(cpage, []).append(
            max(0, source.sim_time_ns - since))
    return intervals


def _detect_frozen_thrash(source, config: dict,
                          samples: Optional[list]) -> list[dict]:
    min_cycles = config["thrash_min_cycles"]
    intervals = _frozen_intervals(source)
    sim_time = max(1, source.sim_time_ns)
    findings = []
    suspects = sorted(
        (c for c, iv in intervals.items() if len(iv) >= min_cycles),
        key=lambda c: (-len(intervals[c]), c),
    )
    peak_frozen = max(
        (s.get("frozen_pages", 0) for s in samples or []), default=None
    )
    for cpage in suspects:
        iv = intervals[cpage]
        frozen_ns = sum(iv)
        label = _label(source, cpage)
        evidence = {
            "freeze_thaw_cycles": len(iv),
            "frozen_ns": frozen_ns,
            "frozen_fraction": round(frozen_ns / sim_time, 6),
        }
        if peak_frozen is not None:
            evidence["peak_frozen_pages"] = peak_frozen
        findings.append({
            "detector": "frozen_thrash",
            "severity": _severity(len(iv), critical_at=2 * min_cycles),
            "cpage": cpage,
            "label": label,
            "summary": (
                f"cpage {cpage} ({label}): {len(iv)} freeze/thaw "
                f"cycle(s), frozen {100.0 * frozen_ns / sim_time:.1f}% "
                "of the run"
            ),
            "evidence": evidence,
        })
    return findings


def _detect_defrost_starvation(source, config: dict) -> list[dict]:
    t2 = source.params.get("t2_defrost_period")
    if not t2:
        return []  # bare trace: no parameters to judge against
    factor = config["starvation_factor"]
    threshold = factor * t2
    findings = []
    intervals = _frozen_intervals(source)
    suspects = sorted(
        (c for c, iv in intervals.items() if max(iv) > threshold),
        key=lambda c: (-max(intervals[c]), c),
    )
    for cpage in suspects:
        longest = max(intervals[cpage])
        label = _label(source, cpage)
        findings.append({
            "detector": "defrost_starvation",
            "severity": _severity(longest, critical_at=2 * threshold),
            "cpage": cpage,
            "label": label,
            "summary": (
                f"cpage {cpage} ({label}): frozen for "
                f"{longest / 1e6:.3f} ms, {longest / t2:.1f}x the "
                f"defrost period -- is the daemon keeping up?"
            ),
            "evidence": {
                "longest_frozen_ns": int(longest),
                "t2_defrost_period_ns": int(t2),
                "threshold_ns": int(threshold),
                "intervals": len(intervals[cpage]),
            },
        })
    return findings


# -- the wall-quarantined pool detector ----------------------------------------

def _pool_summary_from_ledger(records: list[dict]) -> dict:
    """Reconstruct a PoolHealth-style summary from pool.* ledger
    events (the doctor's input when given a ledger file, not a live
    pool)."""
    summary = {"tasks": 0, "failures": 0, "timeouts": 0,
               "respawns": 0, "deaths": 0, "stalls": 0}
    names = {"pool.timeout": "timeouts", "pool.respawn": "respawns",
             "pool.worker_death": "deaths", "pool.stall": "stalls"}
    for record in records:
        if record.get("record") == "event":
            key = names.get(record.get("name"))
            if key:
                summary[key] += 1
        elif record.get("record") == "span" \
                and record.get("name") == "bench.point":
            summary["tasks"] += 1
            if record.get("status") != "ok":
                summary["failures"] += 1
    # a pool.summary event (written at sweep end) is authoritative
    for record in records:
        if record.get("record") == "event" \
                and record.get("name") == "pool.summary":
            attrs = record.get("attrs", {})
            for key in summary:
                if isinstance(attrs.get(key), int):
                    summary[key] = attrs[key]
    return summary


def _detect_pool_wall(pool_summary: dict) -> list[dict]:
    findings = []
    anomalies = (
        ("stalls", "worker(s) stalled past the stall threshold",
         "warning"),
        ("timeouts", "task(s) killed at their deadline", "critical"),
        ("deaths", "worker(s) died mid-task", "critical"),
        ("respawns", "worker respawn(s) after death/kill", "warning"),
        ("failures", "task(s) failed", "warning"),
    )
    for key, what, severity in anomalies:
        count = pool_summary.get(key, 0)
        if count:
            findings.append({
                "detector": "pool_wall",
                "severity": severity,
                "summary": f"{count} {what}",
                "wall": {key: count,
                         "tasks": pool_summary.get("tasks", 0)},
            })
    return findings


# -- the doctor ----------------------------------------------------------------

def validate_detectors(names: Sequence[str]) -> list[str]:
    """Normalize a detector selection; unknown names raise."""
    unknown = [n for n in names if n not in DETECTOR_ORDER]
    if unknown:
        raise DoctorError(
            f"unknown detector {unknown[0]!r} "
            f"(have: {', '.join(DETECTOR_ORDER)})"
        )
    # canonical order regardless of selection order
    return [n for n in DETECTOR_ORDER if n in set(names)]


def diagnose(
    source=None,
    samples: Optional[list] = None,
    pool_summary: Optional[dict] = None,
    ledger_records: Optional[list] = None,
    detectors: Optional[Sequence[str]] = None,
    config: Optional[dict] = None,
) -> dict:
    """Run the detector catalog and return a ``repro-findings/1`` doc.

    ``source`` is a :class:`~repro.profile.ProfileSource` (live run,
    bundle or bare trace); ``samples`` optional sim-time sampler rows;
    ``pool_summary`` / ``ledger_records`` feed the wall-quarantined
    pool detector.  Every finding is also emitted as a
    ``doctor.finding`` event on the ambient run ledger.
    """
    cfg = dict(DEFAULT_CONFIG)
    if config:
        unknown = set(config) - set(DEFAULT_CONFIG)
        if unknown:
            raise DoctorError(
                f"unknown doctor config key {sorted(unknown)[0]!r}"
            )
        cfg.update(config)
    selected = validate_detectors(detectors) if detectors is not None \
        else list(DETECTOR_ORDER)
    if ledger_records is not None and pool_summary is None:
        pool_summary = _pool_summary_from_ledger(ledger_records)
    ran: list[str] = []
    findings: list[dict] = []
    pool_findings: list[dict] = []
    for name in selected:
        if name == "pool_wall":
            if pool_summary is None:
                continue
            ran.append(name)
            pool_findings = _detect_pool_wall(pool_summary)
            continue
        if source is None:
            continue
        ran.append(name)
        if name == "false_sharing":
            findings += _detect_false_sharing(source, cfg)
        elif name == "shootdown_storm":
            findings += _detect_shootdown_storm(source, cfg)
        elif name == "frozen_thrash":
            findings += _detect_frozen_thrash(source, cfg, samples)
        elif name == "defrost_starvation":
            findings += _detect_defrost_starvation(source, cfg)
    if not ran:
        raise DoctorError(
            "nothing to examine: give a trace/bundle/workload for the "
            "sim detectors, or a ledger for pool_wall"
        )
    counts = {name: 0 for name in ran}
    for finding in findings:
        counts[finding["detector"]] += 1
    if "pool_wall" in counts:
        counts["pool_wall"] = len(pool_findings)
    report: dict = {
        "schema": DOCTOR_SCHEMA,
        "workload": getattr(source, "workload", "") if source else "",
        "sim_time_ns": getattr(source, "sim_time_ns", 0)
        if source else 0,
        "n_processors": getattr(source, "n_processors", 0)
        if source else 0,
        "detectors": ran,
        "config": {k: (int(v) if isinstance(v, float) and k.endswith(
            ("_ns",)) else v) for k, v in sorted(cfg.items())},
        "findings": findings,
        "counts": counts,
    }
    if pool_findings:
        report["wall"] = {"pool": pool_findings}
    for finding in findings:
        _ledger.event(
            "doctor.finding",
            detector=finding["detector"],
            severity=finding["severity"],
            cpage=finding.get("cpage"),
            summary=finding["summary"],
        )
    for finding in pool_findings:
        _ledger.event(
            "doctor.finding",
            detector="pool_wall",
            severity=finding["severity"],
            wall=dict(finding["wall"]),
        )
    return report


#: the rerun-comparable view: the wall-quarantined pool findings
#: dropped, everything else untouched (and already deterministic)
strip_wall_findings = _doc.strip_wall


def render_findings(report: dict) -> str:
    """Human-readable doctor report."""
    head = f"doctor: {report.get('workload') or 'trace'}"
    sim_ms = report.get("sim_time_ns", 0) / 1e6
    if sim_ms:
        head += (f" -- {sim_ms:.3f} ms simulated on "
                 f"{report.get('n_processors')} processors")
    lines = [head]
    counts = report.get("counts", {})
    lines.append(
        "  detectors: " + ", ".join(
            f"{name}={counts.get(name, 0)}"
            for name in report.get("detectors", [])
        )
    )
    findings = report.get("findings", [])
    pool = report.get("wall", {}).get("pool", [])
    if not findings and not pool:
        lines.append("  no findings: the run looks healthy")
        return "\n".join(lines)
    for finding in findings:
        lines.append(
            f"  [{finding['severity']}] {finding['detector']}: "
            f"{finding['summary']}"
        )
        evidence = finding.get("evidence", {})
        if evidence:
            lines.append("      " + "  ".join(
                f"{k}={v}" for k, v in sorted(evidence.items())
            ))
    for finding in pool:
        lines.append(
            f"  [{finding['severity']}] pool_wall: "
            f"{finding['summary']}  (wall-clock)"
        )
    return "\n".join(lines)
