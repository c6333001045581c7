"""The cross-run history store: one ``repro-run/1`` summary per run.

The ledger (``obs.ledger``) remembers one run in depth; this module
remembers *every* run in breadth.  Each CLI invocation appends a single
small JSON summary -- what was asked (verb, argv, an args fingerprint),
what the simulator did (seed, sim counters), and content hashes of the
run's durable documents (wall-stripped BENCH docs, the wall-stripped
ledger) -- into ``.repro/history/`` as ``run-000001.json``,
``run-000002.json``, ...  ``repro obs history list|show|trend`` queries
the store, and ``repro obs trend --history N`` turns the last N
bench-carrying summaries into a series perf gate.

Determinism contract, same as everywhere else in the repo: every
wall-clock-dependent figure (timestamps, durations, per-point wall
seconds, events/sec denominators) lives under the summary's top-level
``wall`` key and nowhere else.  :func:`strip_wall_summary` drops that
key; two runs of the same verb with the same args and seed then
produce byte-identical summaries, which is what the round-trip tests
and the CI history step assert.

Summary shape::

    {"schema": "repro-run/1",
     "run": 3,                      # store index (file run-000003.json)
     "verb": "bench",
     "argv": ["bench", "--scale", "smoke", ...],
     "args_sha256": "...",          # fingerprint of {"argv","verb"}
     "status": "ok",                # or "error"
     "exit_code": 0,
     "extras": {"scale": "smoke", "seed": 42, ...},
     "sim": {"sim_time_ns": ..., "faults": ..., ...},
     "bench": {"targets": {"fig1_gauss": {"points": 3,
                                          "sha256": "..."}}},
     "ledger_sha256": "...",        # hash of the wall-stripped ledger
     "wall": {"t0_s": ..., "dur_s": ...,
              "bench": {"fig1_gauss": {"wall_clock_s": ...,
                                       "points": {"p=4": {
                                           "wall_s": ...,
                                           "events_per_s": ...}}}}}}

Absent sections (a run with no bench, no ledger, no sim) are simply
omitted, keeping the fingerprint honest about what the run produced.
"""

from __future__ import annotations

import os
import re
import time
from typing import Any, Optional

from .. import doc as _doc
from ..doc import WALL_KEY

#: schema tag of one run summary
HISTORY_SCHEMA = "repro-run/1"

#: default store location, relative to the working directory
DEFAULT_HISTORY_DIR = os.path.join(".repro", "history")

#: environment variable naming the store (same pattern as REPRO_LEDGER)
HISTORY_ENV = "REPRO_HISTORY"

_RUN_FILE_RE = re.compile(r"^run-(\d{6})\.json$")

#: what the store's readers (``summary_line``, ``trend_history``)
#: touch; absent sections stay absent
SHAPE = {
    "schema": str,
    "run": int,
    "verb": str,
    "status": str,
    "sim?": {"sim_time_ns?": (int, float)},
    "extras?": dict,
    "bench?": {"targets": {"*": dict}},
    "wall?": {
        "dur_s?": (int, float),
        "bench?": {"*": {"points?": {"*": dict}}},
    },
}


class HistoryError(_doc.DocError):
    """An unusable history store or summary."""


def history_root(path: Optional[str] = None) -> str:
    """Resolve the store directory: explicit arg beats ``REPRO_HISTORY``
    beats the ``.repro/history`` default."""
    if path:
        return path
    return os.environ.get(HISTORY_ENV) or DEFAULT_HISTORY_DIR


def list_runs(root: str) -> list[int]:
    """Ascending run indices present in the store."""
    if not os.path.isdir(root):
        raise HistoryError(f"no history store at {root}")
    runs = []
    for name in os.listdir(root):
        match = _RUN_FILE_RE.match(name)
        if match:
            runs.append(int(match.group(1)))
    return sorted(runs)


def run_path(root: str, run: int) -> str:
    return os.path.join(root, f"run-{run:06d}.json")


def append_summary(root: str, summary: dict) -> str:
    """Write ``summary`` as the next run in the store; returns its path.

    The ``run`` field is stamped here (next free index) so callers
    build summaries without knowing the store state.
    """
    try:
        runs = list_runs(root)
    except HistoryError:
        runs = []
    index = (runs[-1] + 1) if runs else 1
    doc = dict(summary)
    doc["run"] = index
    return str(_doc.write(run_path(root, index),
                          _doc.compact(doc) + "\n"))


def load_summary(root: str, run: int) -> dict:
    """One summary by index; structural problems raise HistoryError."""
    path = run_path(root, run)
    if not os.path.exists(path):
        raise HistoryError(f"{path}: no run {run} in {root}")
    return _doc.read(path, HISTORY_SCHEMA, SHAPE, HistoryError)


def load_history(root: str, last: Optional[int] = None) -> list[dict]:
    """The store's summaries in run order, optionally only the last N
    (``last`` of 0 or None means every run)."""
    runs = list_runs(root)
    if last:
        runs = runs[-last:]
    return [load_summary(root, run) for run in runs]


#: the rerun-comparable view: the ``wall`` key dropped
strip_wall_summary = _doc.strip_wall


def summary_line(summary: dict) -> str:
    """One ``repro obs history list`` row."""
    parts = [
        f"run {summary.get('run', '?'):>4}",
        f"{summary.get('verb', '?'):<8}",
        f"{summary.get('status', '?'):<5}",
    ]
    bench = summary.get("bench", {}).get("targets", {})
    if bench:
        parts.append(f"bench[{','.join(sorted(bench))}]")
    sim = summary.get("sim")
    if sim and "sim_time_ns" in sim:
        parts.append(f"sim={sim['sim_time_ns'] / 1e6:.3f}ms")
    dur = summary.get(WALL_KEY, {}).get("dur_s")
    if dur is not None:
        parts.append(f"wall={dur:.2f}s")
    return "  ".join(parts)


class RunRecorder:
    """Accumulates one run's summary; ``finish()`` appends it.

    The CLI dispatcher creates one recorder per verb when ``--history``
    (or ``REPRO_HISTORY``) is active and exposes it ambiently via
    :func:`set_recorder`; verbs drop facts in as they learn them::

        rec = get_recorder()
        rec.note(workload="sec42", seed=42)
        rec.note_sim(sim_time_ns=..., faults=...)
        rec.note_bench("fig1_gauss", bench_doc)

    Everything noted through :meth:`note_wall` (and the bench wall
    figures split out by :meth:`note_bench`) lands under the summary's
    ``wall`` key; everything else must be deterministic.
    """

    def __init__(self, root: str, verb: str, argv: list[str]):
        self.root = root
        self.verb = verb
        self.argv = list(argv)
        self._extras: dict[str, Any] = {}
        self._sim: dict[str, Any] = {}
        self._bench: dict[str, dict] = {}
        self._ledger_sha: Optional[str] = None
        self._wall: dict[str, Any] = {"t0_s": round(time.time(), 3)}
        self._t0 = time.monotonic()
        self._path: Optional[str] = None

    def note(self, **extras: Any) -> None:
        """Deterministic run facts (seed, scale, workload, ...)."""
        self._extras.update(extras)

    def note_sim(self, **counters: Any) -> None:
        """Simulated-time results: sim_time_ns plus protocol counters."""
        self._sim.update(counters)

    def note_wall(self, **wall: Any) -> None:
        """Wall-clock facts; quarantined under the ``wall`` key."""
        self._wall.update(wall)

    def note_bench(self, name: str, doc: dict) -> None:
        """One bench target's ``repro-bench/1`` doc: hash the
        wall-stripped doc, stash the wall figures under ``wall``."""
        from ..bench.schema import strip_wall_clock

        stripped = strip_wall_clock(doc)
        self._bench[name] = {
            "sha256": _doc.sha256(stripped),
            "points": len(doc.get("points", [])),
        }
        wall_points = {}
        for point in doc.get("points", []):
            row: dict[str, Any] = {}
            if "wall_s" in point:
                row["wall_s"] = point["wall_s"]
                metrics = point.get("metrics", {})
                executed = metrics.get("events_executed")
                if executed and point["wall_s"] > 0:
                    row["events_per_s"] = round(
                        executed / point["wall_s"], 3)
            if row:
                wall_points[point.get("name", "?")] = row
        bench_wall: dict[str, Any] = {}
        if "wall_clock_s" in doc:
            bench_wall["wall_clock_s"] = doc["wall_clock_s"]
        if wall_points:
            bench_wall["points"] = wall_points
        if bench_wall:
            self._wall.setdefault("bench", {})[name] = bench_wall

    def note_ledger(self, records: list[dict]) -> None:
        """Hash the run's wall-stripped ledger into the summary."""
        from .ledger import strip_wall_ledger

        self._ledger_sha = _doc.sha256(strip_wall_ledger(records))

    def summary(self, status: str, exit_code: int) -> dict:
        doc: dict[str, Any] = {
            "schema": HISTORY_SCHEMA,
            "verb": self.verb,
            "argv": self.argv,
            "args_sha256": _doc.sha256(
                {"argv": self.argv, "verb": self.verb}),
            "status": status,
            "exit_code": exit_code,
        }
        if self._extras:
            doc["extras"] = dict(sorted(self._extras.items()))
        if self._sim:
            doc["sim"] = dict(sorted(self._sim.items()))
        if self._bench:
            doc["bench"] = {
                "targets": dict(sorted(self._bench.items()))}
        if self._ledger_sha:
            doc["ledger_sha256"] = self._ledger_sha
        wall = dict(self._wall)
        wall["dur_s"] = round(time.monotonic() - self._t0, 6)
        doc[WALL_KEY] = wall
        return doc

    def finish(self, status: str, exit_code: int) -> str:
        """Append the summary to the store; returns the written path.

        Idempotent: a second call returns the first path without
        writing again (the dispatcher's ``finally`` may race a verb
        that already finished explicitly).
        """
        if self._path is None:
            self._path = append_summary(
                self.root, self.summary(status, exit_code))
        return self._path


# -- ambient recorder (mirrors ledger.set_ledger/get_ledger) -------------------

_CURRENT: Optional[RunRecorder] = None


def set_recorder(recorder: Optional[RunRecorder]) -> None:
    """Install (or clear) the ambient run recorder."""
    global _CURRENT
    _CURRENT = recorder


def get_recorder() -> Optional[RunRecorder]:
    """The ambient recorder, or None when history is off."""
    return _CURRENT
