"""Profile input: one normalized view of a run, live or from disk.

Everything downstream (attribution, critical path, explainability)
consumes a :class:`ProfileSource`, which can be built two ways:

* :meth:`ProfileSource.from_run` -- from a just-finished kernel/run,
  with the live tracer events, the machine parameters and (when an
  :class:`~repro.profile.probe.AccessProbe` was installed) the
  per-(page, processor) access-word counters;
* :meth:`ProfileSource.load` -- from a JSONL file.  A *profile bundle*
  written by :meth:`ProfileSource.save` carries a ``profile_meta``
  footer record with everything the event stream lacks (simulated time,
  parameters, access counters, page labels) and reproduces the live
  analysis byte-for-byte.  A bare trace exported with ``--trace-out``
  still loads, with ``complete=False``: protocol costs are attributed,
  access time and the exact reconciliation are not available.

Events are normalized to plain dicts in the JSONL record shape
(``{"time","kind","cpage","proc","detail"[,"eid"][,"cause"]}``) in both
paths, so live-hook and exported-JSONL analyses agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .. import doc as _doc
from ..core.trace import EventKind

#: schema tag of the profile_meta footer record
PROFILE_SCHEMA = "repro-profile/1"

#: machine parameters the profiler needs, captured into the bundle
PARAM_FIELDS = (
    "t_local", "t_remote_read", "t_remote_write", "t_block_word",
    "fault_fixed_local", "fault_fixed_remote", "shootdown_first",
    "shootdown_per_cpu", "page_free", "ipi_target_cost", "atc_miss_cost",
    "t_cpage_lock", "t1_freeze_window", "t2_defrost_period",
)

_EVENT_KINDS = {kind.value for kind in EventKind}

#: one JSONL protocol event (``JsonlTraceSink.emit`` writes these)
EVENT_SHAPE = {
    "time": int,
    "kind": str,
    "cpage": (int, None),
    "proc": (int, None),
    "detail": dict,
    "eid?": int,
    "cause?": (int, None),
}

#: the profile_meta footer record
META_SHAPE = {
    "schema": str,
    "sim_time_ns": int,
    "n_processors": int,
    "params": dict,
    "access": [dict],
    "page_labels?": {"*": str},
    "complete?": bool,
    "workload?": str,
}


class ProfileError(_doc.DocError):
    """Unusable profiler input (missing file, malformed records)."""


@dataclass
class ProfileSource:
    """Everything the profiler knows about one run."""

    #: time-ordered protocol events as JSONL-shaped dicts
    events: list[dict]
    sim_time_ns: int
    n_processors: int
    #: machine timing parameters (PARAM_FIELDS plus words_per_page)
    params: dict
    #: AccessProbe rows (empty when no probe ran)
    access: list[dict] = field(default_factory=list)
    #: cpage index -> workload label (only labeled pages)
    page_labels: dict[int, str] = field(default_factory=dict)
    #: True when access counters and parameters were captured -- the
    #: precondition for exact time reconciliation
    complete: bool = True
    workload: str = ""

    # -- construction -------------------------------------------------------

    @classmethod
    def from_run(cls, kernel, result, probe=None,
                 workload: str = "") -> "ProfileSource":
        """Build a source from a finished traced run."""
        p = kernel.machine.params
        exported = p.to_dict()
        params = {name: exported[name] for name in PARAM_FIELDS}
        params["words_per_page"] = p.words_per_page
        events = [e.record() for e in kernel.tracer.ordered()]
        labels = {
            cpage.index: cpage.label
            for cpage in kernel.coherent.cpages
            if cpage.label
        }
        return cls(
            events=events,
            sim_time_ns=int(result.sim_time_ns),
            n_processors=p.n_processors,
            params=params,
            access=probe.table() if probe is not None else [],
            page_labels=labels,
            complete=probe is not None,
            workload=workload,
        )

    # -- persistence --------------------------------------------------------

    def save(self, destination: Union[str, Path]) -> Path:
        """Write a profile bundle: JSONL events + a profile_meta footer."""
        path = Path(destination)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            stream.writelines(_doc.compact(record) + "\n"
                              for record in (*self.events, self._meta()))
        return path

    def _meta(self) -> dict:
        return {
            "record": "profile_meta",
            "schema": PROFILE_SCHEMA,
            "sim_time_ns": self.sim_time_ns,
            "n_processors": self.n_processors,
            "params": self.params,
            "access": self.access,
            "page_labels": {
                str(k): v for k, v in sorted(self.page_labels.items())
            },
            "complete": self.complete,
            "workload": self.workload,
        }

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ProfileSource":
        """Load a profile bundle or a bare exported JSONL trace."""
        path = Path(path)
        events: list[dict] = []
        meta: Optional[dict] = None
        for lineno, record in _doc.read_jsonl(path, error=ProfileError):
            where = f"{path}:{lineno}"
            if "record" in record:
                if record["record"] == "profile_meta":
                    meta = _doc.expect(record, where, PROFILE_SCHEMA,
                                       META_SHAPE, ProfileError)
                continue  # foreign records (metric/sample) are skipped
            _doc.expect(record, where, shape=EVENT_SHAPE,
                        error=ProfileError)
            if record["kind"] not in _EVENT_KINDS:
                raise ProfileError(
                    f"{where}: unknown event kind {record['kind']!r}")
            events.append(record)
        if not events:
            raise ProfileError(
                f"{path}: no protocol events found "
                "(expected JSONL from --trace-out or repro explain --save)")
        events.sort(key=lambda e: e["time"])  # stable: JSONL is in
        # recording order, matching ProtocolTracer.ordered()
        if meta is not None:
            return cls(
                events=events,
                sim_time_ns=meta["sim_time_ns"],
                n_processors=meta["n_processors"],
                params=meta["params"],
                access=meta["access"],
                page_labels=_int_keys(
                    meta.get("page_labels", {}), f"{path}: page_labels"),
                complete=bool(meta.get("complete", True)),
                workload=meta.get("workload", ""),
            )
        # bare trace: degrade gracefully -- protocol costs only
        procs = [e["proc"] for e in events if e["proc"] is not None]
        return cls(
            events=events,
            sim_time_ns=max(e["time"] for e in events),
            n_processors=(max(procs) + 1) if procs else 1,
            params={},
            access=[],
            page_labels={},
            complete=False,
            workload="",
        )


def _int_keys(table: dict, where: str) -> dict:
    try:
        return {int(k): v for k, v in table.items()}
    except ValueError:
        raise ProfileError(
            f"{where}: keys must be cpage indices") from None
