"""The ``repro explain`` report: attribution + diagnosis, text or JSON.

Combines the three profiler views into one report object:

* the cost attribution with the top-K most expensive pages;
* a counterfactual verdict per reported page;
* optionally the critical path;
* optionally a per-page lifecycle timeline annotating each policy
  decision with the ``t1`` window comparison that drove it (the
  invalidation timestamp each fault saw, and whether the freeze window
  was open).

``to_json()`` output is canonical (sorted keys, fixed float formatting)
and byte-identical across same-seed runs, whether the source was the
live tracer or a saved bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import doc as _doc
from .attribution import Attribution, compute_attribution
from .counterfactual import page_verdict
from .critical_path import CriticalPath, compute_critical_path
from .source import ProfileSource


@dataclass
class ExplainReport:
    source: ProfileSource
    attribution: Attribution
    #: [(cpage, categories)] most expensive first
    top: list[tuple[int, dict]] = field(default_factory=list)
    #: cpage -> counterfactual verdict
    verdicts: dict[int, dict] = field(default_factory=dict)
    critical_path: Optional[CriticalPath] = None
    #: cpage -> lifecycle timeline lines
    timelines: dict[int, list[str]] = field(default_factory=dict)

    # -- rendering ----------------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "schema": "repro-explain/1",
            "workload": self.source.workload,
            "complete": self.source.complete,
            "attribution": self.attribution.to_dict(),
            "top_pages": [
                {
                    "cpage": cpage,
                    "label": self.attribution.label(cpage),
                    "total_ns": cats["total"],
                    "categories": {
                        k: v for k, v in sorted(cats.items())
                        if k != "total"
                    },
                    "freeze_penalty_ns":
                        self.attribution.freeze_penalty_ns.get(cpage, 0),
                    "verdict": self.verdicts.get(cpage),
                }
                for cpage, cats in self.top
            ],
        }
        if self.critical_path is not None:
            doc["critical_path"] = self.critical_path.to_dict()
        if self.timelines:
            doc["timelines"] = {
                str(c): lines
                for c, lines in sorted(self.timelines.items())
            }
        return doc

    def to_json(self) -> str:
        return _doc.pretty(self.to_dict())

    def format_text(self) -> str:
        a = self.attribution
        ms = 1e6
        lines = []
        title = self.source.workload or "trace"
        lines.append(
            f"explain: {title} -- {a.sim_time_ns / ms:.3f} ms simulated "
            f"on {a.n_processors} processors"
        )
        if a.complete:
            status = "exact" if a.reconciled else (
                f"NOT reconciled (overflow {a.overflow_ns} ns)")
            lines.append(
                f"attribution over {a.budget_ns / ms:.3f} ms of "
                f"processor time ({status}"
                + (f", {a.drift_ns} ns rounding drift absorbed)"
                   if a.drift_ns else ")")
            )
        else:
            lines.append(
                "bare trace: protocol costs only (run with --save or "
                "repro explain <workload> for exact attribution)"
            )
        lines.append("")
        lines.append("  time by category:")
        total = max(1, a.budget_ns)
        for cat, ns in a.per_category.items():
            if not ns:
                continue
            lines.append(
                f"    {cat:<20} {ns / ms:14.3f} ms  "
                f"{100.0 * ns / total:5.1f}%"
            )
        lines.append("")
        lines.append(f"  top {len(self.top)} pages by attributed cost:")
        for rank, (cpage, cats) in enumerate(self.top, start=1):
            label = a.label(cpage)
            penalty = a.freeze_penalty_ns.get(cpage, 0)
            head = (
                f"    #{rank} cpage {cpage} ({label}): "
                f"{cats['total'] / ms:.3f} ms"
            )
            if penalty:
                head += f", freeze penalty {penalty / ms:.3f} ms"
            lines.append(head)
            worst = sorted(
                ((k, v) for k, v in cats.items() if k != "total"),
                key=lambda kv: (-kv[1], kv[0]),
            )[:3]
            lines.append(
                "       "
                + ", ".join(f"{k} {v / ms:.3f} ms" for k, v in worst)
            )
            verdict = self.verdicts.get(cpage)
            if verdict and verdict.get("recommended") not in (
                None, "unknown"
            ):
                agrees = ("policy agrees" if verdict["policy_agrees"]
                          else f"policy chose {verdict['policy_chose']}")
                lines.append(
                    f"       counterfactual: {verdict['recommended']} "
                    f"(cache {verdict['cost_if_cache_ns'] / ms:.3f} ms "
                    f"vs remote {verdict['cost_if_remote_ns'] / ms:.3f} "
                    f"ms; {agrees}) -- {verdict['note']}"
                )
        if self.critical_path is not None:
            cp = self.critical_path
            lines.append("")
            lines.append(
                f"  critical path: {cp.path_ns / ms:.3f} ms over "
                f"{len(cp.segments)} protocol operations "
                f"({100.0 * cp.fraction:.1f}% of simulated time)"
            )
            for seg_kind, ns in sorted(cp.by_kind().items(),
                                       key=lambda kv: (-kv[1], kv[0])):
                lines.append(
                    f"    {seg_kind:<12} {ns / ms:12.3f} ms"
                )
            for seg in cp.segments[:12]:
                where = (f"cpage {seg.cpage}" if seg.cpage is not None
                         else "-")
                who = f"cpu{seg.proc}" if seg.proc is not None else ""
                action = seg.detail.get("action")
                lines.append(
                    f"    {seg.time / ms:10.3f} ms  {seg.kind:<10} "
                    f"{where:<10} {who:<6} +{seg.weight_ns / ms:.3f} ms"
                    + (f" ({action})" if action else "")
                )
            if len(cp.segments) > 12:
                lines.append(
                    f"    ... {len(cp.segments) - 12} more segments "
                    "(--format json for all)"
                )
        for cpage, timeline in sorted(self.timelines.items()):
            lines.append("")
            lines.append(
                f"  lifecycle of cpage {cpage} ({a.label(cpage)}):"
            )
            lines.extend("    " + line for line in timeline)
        lines.append("")
        return "\n".join(lines)


def build_explain(
    source: ProfileSource,
    top: int = 5,
    page: Optional[int] = None,
    critical_path: bool = False,
    timeline_limit: int = 40,
) -> ExplainReport:
    """Assemble the full report for one profile source."""
    attribution = compute_attribution(source)
    top_pages = attribution.top_pages(top)
    if page is not None and page not in [c for c, _ in top_pages]:
        cats = attribution.per_page.get(page, {"total": 0})
        top_pages = top_pages + [(page, cats)]
    verdicts = {
        cpage: page_verdict(source, cpage) for cpage, _ in top_pages
    }
    report = ExplainReport(
        source=source,
        attribution=attribution,
        top=top_pages,
        verdicts=verdicts,
        critical_path=(
            compute_critical_path(source) if critical_path else None
        ),
    )
    pages_for_timeline = (
        [page] if page is not None
        else [c for c, _ in top_pages[:1]]
    )
    for cpage in pages_for_timeline:
        report.timelines[cpage] = page_timeline(
            source, cpage, limit=timeline_limit
        )
    return report


def page_timeline(source: ProfileSource, cpage: int,
                  limit: int = 40) -> list[str]:
    """The policy lifecycle of one page, with t1-window annotations."""
    t1 = source.params.get("t1_freeze_window")
    ms = 1e6
    lines: list[str] = []
    events = [e for e in source.events if e["cpage"] == cpage]
    for e in events:
        if len(lines) >= limit:
            lines.append(f"... {len(events) - limit} more events")
            break
        kind = e["kind"]
        d = e["detail"]
        t = e["time"]
        who = f"cpu{e['proc']}" if e["proc"] is not None else "daemon"
        if kind == "fault":
            mode = "write" if d.get("write") else "read"
            line = (
                f"{t / ms:10.3f} ms  {who:<6} {mode} fault -> "
                f"{d.get('action', '?')} "
                f"[{d.get('from', '?')} -> {d.get('to', '?')}]"
            )
            last_inval = d.get("last_inval")
            if (t1 is not None and last_inval is not None
                    and d.get("action") in ("replicate", "migrate",
                                            "remote_map", "collapse")):
                age = t - last_inval
                if last_inval <= 0:
                    line += "  (no prior invalidation)"
                elif age < t1:
                    line += (
                        f"  (invalidated {age / ms:.3f} ms ago "
                        f"< t1={t1 / ms:g} ms: freeze window open)"
                    )
                else:
                    line += (
                        f"  (invalidated {age / ms:.3f} ms ago "
                        f">= t1={t1 / ms:g} ms: window clear)"
                    )
            lines.append(line)
        elif kind == "freeze":
            line = f"{t / ms:10.3f} ms  {who:<6} FROZEN"
            last_inval = d.get("last_inval")
            if t1 is not None and last_inval is not None:
                line += (
                    f"  (invalidated {(t - last_inval) / ms:.3f} ms ago "
                    f"< t1={t1 / ms:g} ms)"
                )
            lines.append(line)
        elif kind == "thaw":
            via = d.get("via", "?")
            lines.append(
                f"{t / ms:10.3f} ms  {who:<6} thawed (via {via})"
            )
        elif kind == "shootdown":
            lines.append(
                f"{t / ms:10.3f} ms  {who:<6} shootdown "
                f"{d.get('directive', '?')} "
                f"({d.get('interrupted', 0)} interrupted)"
            )
        elif kind == "transfer":
            lines.append(
                f"{t / ms:10.3f} ms  xfer   module {d.get('src')} -> "
                f"{d.get('dst')} (+{d.get('dur', 0) / ms:.3f} ms)"
            )
    if not lines:
        lines.append("no protocol events for this page")
    return lines
