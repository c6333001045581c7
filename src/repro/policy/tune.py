"""Closed-loop policy tuning: replay a recording, keep what wins.

``repro tune`` closes the loop the paper leaves open in section 7
("better policies using more complete reference history"): record a run
once, then use the trace-driven replayer to *measure* -- not model --
candidate parameter sets, and emit the winner as a ``repro-tune/1``
JSON document that ``repro replay --tuned`` and ``repro gen run
--tuned`` consume directly.

Three zoo members are tunable:

* ``adaptive`` -- grid search over the hot-page knobs
  (``t1_hot_factor``, ``t2_hot``) of
  :class:`~repro.policy.adaptive.AdaptiveFreezePolicy`;
* ``competitive`` -- grid search over the rent-or-buy ``buy`` price;
* ``tuned`` -- no search at all: the PR-4 counterfactual scorer prices
  every referenced page's reference string under the two pure
  alternatives, and the resulting per-page verdict table *is* the
  parameter set (:class:`~repro.policy.tuned.TunedPolicy`).

Every trial is an exact-mode replay of the same bundle, so the reported
simulated times are bit-comparable with each other, with the recorded
baseline, and with any later ``repro replay --policy`` of the same
bundle.  Documents are rendered byte-stably (sorted keys, fixed
indentation, trailing newline) so committing one produces no spurious
diffs across re-runs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .. import doc as _doc

#: schema tag of tuned-parameter documents
TUNE_SCHEMA = "repro-tune/1"

#: policies `repro tune` knows how to tune
TUNABLE = ("adaptive", "competitive", "tuned")

#: what ``load_tuned`` reads of a tuned-parameter document
SHAPE = {"schema": str, "policy": str, "policy_args": dict}

#: default grid for ``--policy adaptive``
ADAPTIVE_CANDIDATES = (
    {"t1_hot_factor": 16.0},
    {"t1_hot_factor": 64.0},
    {"t1_hot_factor": 256.0},
    {"t1_hot_factor": 64.0, "t2_hot": 1_000_000_000.0},
)

#: default grid for ``--policy competitive``
COMPETITIVE_CANDIDATES = (
    {"buy": 2.0},
    {"buy": 8.0},
    {"buy": 32.0},
)

#: cap on scored pages for ``--policy tuned`` (heaviest first)
DEFAULT_MAX_PAGES = 64


class TuneError(_doc.DocError):
    """The tuning request is malformed or cannot be carried out."""


def _verdict_table(bundle, max_pages: int) -> dict:
    """Per-page verdicts from the counterfactual scorer, heaviest pages
    first, as a ``{cpage index: "cache" | "remote_map"}`` table."""
    from ..profile import ProfileSource, page_verdict
    from ..profile.attribution import compute_attribution
    from ..replay import replay_trace

    replay = replay_trace(bundle, trace=True, probe=True)
    source = ProfileSource.from_run(
        replay.kernel, replay, replay.probe, workload="tune"
    )
    attribution = compute_attribution(source)
    ranked = sorted(
        attribution.per_page.items(), key=lambda kv: (-kv[1]["total"], kv[0])
    )
    table = {}
    for cpage, _cats in ranked[:max_pages]:
        verdict = page_verdict(source, cpage)
        if verdict["recommended"] in ("cache", "remote_map"):
            table[cpage] = verdict["recommended"]
    return table


def tune(
    bundle,
    policy: str = "adaptive",
    candidates=None,
    max_pages: int = DEFAULT_MAX_PAGES,
) -> dict:
    """Tune ``policy`` against one recorded bundle; return the document.

    ``candidates`` overrides the default parameter grid (a sequence of
    ``policy_args`` dicts; ignored for ``tuned``, whose parameter set is
    derived, not searched).
    """
    if policy not in TUNABLE:
        raise TuneError(
            f"policy {policy!r} is not tunable "
            f"(want one of {', '.join(TUNABLE)})"
        )
    # lazy: repro.policy must stay importable from repro.core (the
    # compat shim) without dragging the replay/analysis stack in
    from ..replay import replay_trace
    from ..replay.bundle import TraceBundle, load_trace

    if not isinstance(bundle, TraceBundle):
        bundle = load_trace(bundle)

    baseline = replay_trace(bundle)
    base_ns = baseline.sim_time_ns

    if policy == "tuned":
        table = _verdict_table(bundle, max_pages)
        if not table:
            raise TuneError(
                "the counterfactual scorer found no page it would pin: "
                "every scored page is indifferent or unknown"
            )
        candidates = [
            {"table": {str(k): v for k, v in sorted(table.items())}}
        ]
    elif candidates is None:
        candidates = (
            ADAPTIVE_CANDIDATES if policy == "adaptive"
            else COMPETITIVE_CANDIDATES
        )
    if not candidates:
        raise TuneError("no candidate parameter sets to try")

    trials = []
    for args in candidates:
        result = replay_trace(bundle, policy=policy, policy_args=dict(args))
        trials.append({
            "policy_args": dict(args),
            "sim_time_ns": result.sim_time_ns,
        })
    # earliest candidate wins ties, so the document is deterministic
    best = min(trials, key=lambda t: t["sim_time_ns"])
    improvement = 100.0 * (base_ns - best["sim_time_ns"]) / base_ns

    config = bundle.config
    return {
        "schema": TUNE_SCHEMA,
        "workload": config.get("workload", ""),
        "machine": config.get("machine"),
        "baseline": {
            "policy": config.get("policy") or "freeze",
            "policy_args": dict(config.get("policy_args") or {}),
            "sim_time_ns": base_ns,
        },
        "policy": policy,
        "policy_args": dict(best["policy_args"]),
        "sim_time_ns": best["sim_time_ns"],
        "improvement_pct": round(improvement, 4),
        "trials": trials,
    }


def load_tuned(path: Union[str, Path]) -> tuple[str, dict]:
    """Read a ``repro-tune/1`` document; return ``(policy, policy_args)``."""
    doc = _doc.read(path, TUNE_SCHEMA, SHAPE, TuneError)
    if doc["policy"] not in TUNABLE:
        raise TuneError(
            f"{path}: policy {doc['policy']!r} is not tunable "
            f"(want one of {', '.join(TUNABLE)})")
    return doc["policy"], doc["policy_args"]
