"""Streaming trace export: JSONL and Chrome trace-event sinks.

A :class:`TraceSink` receives every :class:`~repro.core.trace.TraceEvent`
the moment :meth:`ProtocolTracer.record` accepts it -- independently of
the tracer's in-memory retention, so a long soak run can stream its full
event history to disk while keeping only a small ring in memory (or no
events at all, with ``tracer.retain = False``).

Two sinks are provided:

* :class:`JsonlTraceSink` -- one sorted-key JSON object per line,
  written incrementally (O(1) memory).  The canonical machine-readable
  format; byte-identical across same-seed runs.
* :class:`ChromeTraceSink` -- the Chrome trace-event format (a ``.json``
  file loadable in Perfetto / ``chrome://tracing``).  One track per
  processor (faults, shootdowns), one ``daemon`` track (defrost runs),
  one ``xfer`` track (block transfers), plus per-cpage *async spans*
  covering every frozen interval.  Events are buffered and sorted by
  timestamp at :meth:`close` so ``ts`` is monotone per track -- use the
  JSONL sink when constant memory matters.

Timestamps: simulated nanoseconds in JSONL (exact integers), simulated
microseconds in Chrome traces (the format's unit).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Optional, Union

from ..core.trace import EventKind, TraceEvent
from ..doc import compact


class TraceSink:
    """Interface: receives events as they are recorded.

    Sinks are context managers: ``with JsonlTraceSink(path) as sink``
    guarantees :meth:`close` runs even when the run raises, so a
    crashing simulation still leaves a valid (truncated) trace file.
    """

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush and finalize; further emits are undefined."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _open(destination: Union[str, Path, IO[str]]) -> tuple[IO[str], bool]:
    """(stream, owns_it) for a path or an already-open text stream."""
    if hasattr(destination, "write"):
        return destination, False  # type: ignore[return-value]
    path = Path(destination)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w"), True


class JsonlTraceSink(TraceSink):
    """Stream events as JSON Lines, one object per event.

    Record shape (keys sorted, compact separators)::

        {"cpage":3,"detail":{...},"kind":"fault","proc":1,"time":81230}
    """

    def __init__(
        self,
        destination: Union[str, Path, IO[str]],
        flush_every: int = 1000,
    ) -> None:
        self.stream, self._owns = _open(destination)
        self.emitted = 0
        self.closed = False
        #: flush after this many events (0 disables): bounds how much
        #: trace a crash can lose to stdio buffering while keeping the
        #: happy path at one syscall per ~flush_every events
        self.flush_every = flush_every

    def emit(self, event: TraceEvent) -> None:
        self.stream.write(compact(event.record()))
        self.stream.write("\n")
        self.emitted += 1
        if self.flush_every and self.emitted % self.flush_every == 0:
            self.stream.flush()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.stream.flush()
        if self._owns:
            self.stream.close()


#: pseudo-track ids used beyond the per-processor tracks
DAEMON_TRACK = "daemon"
XFER_TRACK = "xfer"

#: the single Chrome trace process all tracks live in
_PID = 1


class ChromeTraceSink(TraceSink):
    """Collect events into Chrome trace-event format (JSON).

    The file is written on :meth:`close`: a ``traceEvents`` array sorted
    by timestamp (monotone ``ts`` per track), with thread-name metadata
    so Perfetto labels the tracks ``cpu0..cpuN-1``, ``daemon`` and
    ``xfer``.  Frozen intervals appear as async spans (``ph: b``/``e``,
    category ``frozen``) identified by cpage index; spans still open at
    close are ended at the last event timestamp.
    """

    def __init__(
        self,
        destination: Union[str, Path, IO[str]],
        n_processors: Optional[int] = None,
    ) -> None:
        self.stream, self._owns = _open(destination)
        self.events: list[dict] = []
        #: cpage index -> track id of the currently open frozen span
        self._open_freezes: dict[int, int] = {}
        self._max_ts_ns = 0
        self._tids: set = set()
        self.closed = False
        if n_processors:
            for proc in range(n_processors):
                self._tids.add(proc)

    # -- track naming -------------------------------------------------------

    @staticmethod
    def _tid_sort_key(tid) -> int:
        if isinstance(tid, int):
            return tid
        return 10_000 if tid == DAEMON_TRACK else 10_001

    def _metadata(self) -> list[dict]:
        records = [{
            "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
            "args": {"name": "platinum"},
        }]
        for tid in sorted(self._tids, key=self._tid_sort_key):
            name = f"cpu{tid}" if isinstance(tid, int) else tid
            records.append({
                "ph": "M", "pid": _PID,
                "tid": self._tid_sort_key(tid),
                "name": "thread_name", "args": {"name": name},
            })
        return records

    # -- event mapping ------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        ts = event.time / 1e3  # ns -> us
        self._max_ts_ns = max(self._max_ts_ns, event.time)
        kind = event.kind
        if kind is EventKind.TRANSFER:
            tid = XFER_TRACK
        elif kind is EventKind.DEFROST_RUN:
            tid = DAEMON_TRACK
        elif event.processor is not None:
            tid = event.processor
        else:
            tid = DAEMON_TRACK
        self._tids.add(tid)
        args = dict(event.detail)
        if event.cpage_index is not None:
            args["cpage"] = event.cpage_index
        base = {
            "pid": _PID,
            "tid": self._tid_sort_key(tid),
            "ts": ts,
            "cat": kind.value,
            "args": args,
        }
        if kind is EventKind.FREEZE and event.cpage_index is not None:
            # the instant on the freezing processor's track...
            self.events.append(
                {**base, "ph": "i", "s": "t", "name": "freeze"}
            )
            # ...plus the opening edge of the frozen async span
            if event.cpage_index not in self._open_freezes:
                self._open_freezes[event.cpage_index] = base["tid"]
                self.events.append({
                    "ph": "b", "pid": _PID, "tid": base["tid"],
                    "ts": ts, "cat": "frozen",
                    "id": event.cpage_index,
                    "name": f"frozen cpage{event.cpage_index}",
                    "args": {"cpage": event.cpage_index},
                })
            return
        if kind is EventKind.THAW and event.cpage_index is not None:
            self.events.append(
                {**base, "ph": "i", "s": "t", "name": "thaw"}
            )
            if event.cpage_index in self._open_freezes:
                del self._open_freezes[event.cpage_index]
                self.events.append({
                    "ph": "e", "pid": _PID, "tid": base["tid"],
                    "ts": ts, "cat": "frozen",
                    "id": event.cpage_index,
                    "name": f"frozen cpage{event.cpage_index}",
                    "args": {},
                })
            return
        name = kind.value
        if kind is EventKind.FAULT:
            name = f"fault:{event.detail.get('action', '?')}"
        elif kind is EventKind.TRANSFER:
            name = (
                f"xfer m{event.detail.get('src')}->"
                f"m{event.detail.get('dst')}"
            )
        self.events.append({**base, "ph": "i", "s": "t", "name": name})

    # -- finalization -------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        end_ts = self._max_ts_ns / 1e3
        for cpage_index, tid in sorted(self._open_freezes.items()):
            self.events.append({
                "ph": "e", "pid": _PID, "tid": tid,
                "ts": end_ts, "cat": "frozen", "id": cpage_index,
                "name": f"frozen cpage{cpage_index}", "args": {},
            })
        self._open_freezes.clear()
        # stable sort by timestamp: per-track order becomes monotone
        # while same-timestamp events keep their recording order
        self.events.sort(key=lambda e: e["ts"])
        doc = {
            "traceEvents": self._metadata() + self.events,
            "displayTimeUnit": "ms",
        }
        json.dump(doc, self.stream)
        self.stream.write("\n")
        self.stream.flush()
        if self._owns:
            self.stream.close()


# -- Prometheus text exposition ------------------------------------------------
#
# The text-based exposition format 0.0.4: `# HELP` / `# TYPE` headers,
# one `name{labels} value` sample per line, histograms as cumulative
# `_bucket{le=...}` series ending at `le="+Inf"` plus `_sum`/`_count`.
# Rendering reads registry state without mutating it, so interleaving
# `to_prometheus` with `to_jsonl` keeps the JSONL bytes identical.

_PROM_NAME_RE_TEXT = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_LABEL_RE_TEXT = r"[a-zA-Z_][a-zA-Z0-9_]*"


def _prom_number(value) -> str:
    value = float(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _prom_escape(value) -> str:
    return str(value).replace("\\", "\\\\") \
        .replace("\n", "\\n").replace('"', '\\"')


def _prom_labels(labels: dict, extra: Optional[dict] = None) -> str:
    pairs = list(labels.items()) + list((extra or {}).items())
    if not pairs:
        return ""
    body = ",".join(
        f'{key}="{_prom_escape(val)}"' for key, val in pairs
    )
    return "{" + body + "}"


def _prom_family(name: str, kind: str, help_text: str,
                 series: list, out: list) -> None:
    """Render one metric family from ``(labels, sample)`` rows, where a
    sample is either ``{"value": v}`` or a histogram
    ``{"buckets": [...], "counts": [...], "sum": s, "count": n}``."""
    if help_text:
        out.append(f"# HELP {name} {_prom_escape(help_text)}")
    prom_kind = kind if kind in ("counter", "gauge", "histogram") \
        else "untyped"
    out.append(f"# TYPE {name} {prom_kind}")
    for labels, sample in series:
        if "value" in sample:
            out.append(
                f"{name}{_prom_labels(labels)} "
                f"{_prom_number(sample['value'])}"
            )
            continue
        cumulative = 0
        for bound, bucket_count in zip(sample["buckets"],
                                       sample["counts"]):
            cumulative += bucket_count
            out.append(
                f"{name}_bucket"
                f"{_prom_labels(labels, {'le': _prom_number(bound)})} "
                f"{cumulative}"
            )
        out.append(
            f"{name}_bucket{_prom_labels(labels, {'le': '+Inf'})} "
            f"{_prom_number(sample['count'])}"
        )
        out.append(
            f"{name}_sum{_prom_labels(labels)} "
            f"{_prom_number(sample['sum'])}"
        )
        out.append(
            f"{name}_count{_prom_labels(labels)} "
            f"{_prom_number(sample['count'])}"
        )


def to_prometheus(registry) -> str:
    """The registry in Prometheus text format (one trailing newline).

    Families render in registration order, series in first-bound order
    -- the same deterministic order as ``collect()``, so same-seed
    runs expose byte-identical text.
    """
    out: list[str] = []
    for metric in registry:
        series = []
        for labels, child in metric.series():
            if metric.kind == "histogram":
                series.append((labels, {
                    "buckets": list(child.buckets),
                    "counts": list(child.counts),
                    "sum": child.sum,
                    "count": child.count,
                }))
            else:
                series.append((labels, {"value": child.value}))
        _prom_family(metric.name, metric.kind, metric.help, series, out)
    return "\n".join(out) + "\n" if out else ""


def records_to_prometheus(records: list) -> str:
    """Prometheus text from ``collect()``-shaped metric records (the
    ``repro metrics --from FILE`` path: no help text survives the JSONL
    round trip, so families carry ``# TYPE`` only)."""
    families: dict[str, tuple[str, list]] = {}
    order: list[str] = []
    for record in records:
        if record.get("record") != "metric":
            continue
        name = record["name"]
        if name not in families:
            families[name] = (record.get("type", "untyped"), [])
            order.append(name)
        labels = record.get("labels", {})
        if record.get("type") == "histogram":
            families[name][1].append((labels, {
                "buckets": record.get("buckets", []),
                "counts": record.get("counts", []),
                "sum": record.get("sum", 0.0),
                "count": record.get("count", 0),
            }))
        else:
            families[name][1].append(
                (labels, {"value": record.get("value", 0.0)}))
    out: list[str] = []
    for name in order:
        kind, series = families[name]
        _prom_family(name, kind, "", series, out)
    return "\n".join(out) + "\n" if out else ""


def lint_prometheus(text: str) -> list:
    """Structural problems in Prometheus exposition text (empty list =
    clean).  Checks line syntax, TYPE-before-samples, histogram
    completeness (``+Inf`` bucket present, cumulative non-decreasing,
    ``+Inf`` == ``_count``) -- the checks the CI prom lint runs."""
    import re

    problems: list = []
    sample_re = re.compile(
        rf"^({_PROM_NAME_RE_TEXT})"
        r"(\{(.*)\})? "
        r"(NaN|[+-]Inf|[+-]?[0-9.eE+-]+)"
        r"( [0-9]+)?$"
    )
    label_re = re.compile(
        rf'^{_PROM_LABEL_RE_TEXT}="(\\.|[^"\\])*"$'
    )
    typed: dict[str, str] = {}
    sampled: set = set()
    #: (family, label-key) -> [per-bucket cumulative values, count]
    hist: dict = {}

    def family_of(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) \
                    and name[: -len(suffix)] in typed:
                return name[: -len(suffix)]
        return name

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            problems.append(f"line {lineno}: blank line")
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 3 \
                    or not re.fullmatch(_PROM_NAME_RE_TEXT, parts[2]):
                problems.append(
                    f"line {lineno}: malformed {parts[1]} line")
                continue
            if parts[1] == "TYPE":
                name = parts[2]
                if len(parts) < 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary",
                        "untyped"):
                    problems.append(
                        f"line {lineno}: bad TYPE for {name}")
                elif name in typed:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {name}")
                elif name in sampled:
                    problems.append(
                        f"line {lineno}: TYPE for {name} after its "
                        "samples")
                else:
                    typed[name] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment: allowed
        match = sample_re.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample line")
            continue
        name, _, label_body, value_text = match.group(1, 2, 3, 4)
        labels = {}
        if label_body:
            for part in re.split(r",(?=[a-zA-Z_])", label_body):
                if not label_re.match(part):
                    problems.append(
                        f"line {lineno}: bad label {part!r}")
                    continue
                key, _, raw = part.partition("=")
                labels[key] = raw[1:-1]
        family = family_of(name)
        sampled.add(family)
        if family not in typed:
            problems.append(
                f"line {lineno}: sample {name} has no TYPE")
            continue
        if typed.get(family) == "histogram":
            key = (family, tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le")))
            entry = hist.setdefault(
                key, {"buckets": [], "inf": None, "count": None})
            value = float(value_text.replace("Inf", "inf"))
            if name.endswith("_bucket"):
                if "le" not in labels:
                    problems.append(
                        f"line {lineno}: histogram bucket without le")
                elif labels["le"] == "+Inf":
                    entry["inf"] = value
                else:
                    entry["buckets"].append((lineno, value))
            elif name.endswith("_count"):
                entry["count"] = value
    for (family, _), entry in sorted(hist.items()):
        if entry["inf"] is None:
            problems.append(
                f"{family}: histogram series missing le=\"+Inf\"")
        last = 0.0
        for lineno, value in entry["buckets"]:
            if value < last:
                problems.append(
                    f"line {lineno}: {family} buckets not cumulative")
            last = value
        if entry["inf"] is not None:
            if entry["inf"] < last:
                problems.append(
                    f"{family}: +Inf bucket below a finite bucket")
            if entry["count"] is not None \
                    and entry["inf"] != entry["count"]:
                problems.append(
                    f"{family}: +Inf bucket != _count "
                    f"({entry['inf']:g} vs {entry['count']:g})")
    return problems
