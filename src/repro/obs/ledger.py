"""The structured run ledger: ``repro-events/1`` span/event JSONL.

Every CLI verb opens a *root span*; pipelines nest child spans under it
(``bench.sweep`` -> ``bench.point``, ``record.simulate`` ->
``record.save``, ...), and point events mark things that happen at an
instant (a worker respawn, a stall warning).  The ledger is the fleet
counterpart of the per-simulation trace: where ``--trace-out`` records
what the *simulated machine* did in simulated nanoseconds, the ledger
records what the *tooling* did in wall-clock seconds -- which verb ran,
how the sweep sharded across workers, where the wall time went.

Record shapes (one sorted-key JSON object per line)::

    {"record":"meta","schema":"repro-events/1","verb":"bench",
     "argv":["--scale","smoke"],"wall":{"pid":123,"t0_s":...}}
    {"record":"span","sid":2,"parent":1,"name":"bench.point",
     "attrs":{"task":"fig1_gauss::p=4","ok":true},
     "status":"ok","wall":{"t0_s":...,"dur_s":0.41,"worker":0}}
    {"record":"event","sid":9,"parent":1,"name":"pool.respawn",
     "attrs":{"worker":2},"wall":{"t_s":...}}
    {"record":"tick","name":"bench.progress",
     "wall":{"t_s":...,"task":"fig1_gauss::p=4","done":3,"total":9}}
    {"record":"close","status":"ok","spans":7,"events":2,
     "wall":{"dur_s":1.93}}

``tick`` records are the streaming-progress channel ``repro obs ledger
--follow`` renders: they carry *only* wall-clock payload (no sid, every
field under ``wall``), are emitted in completion order, and are dropped
wholesale by :func:`strip_wall_ledger` -- so live progress never
perturbs the deterministic sid assignment or the rerun-comparable view.

Determinism contract: **everything outside the ``wall`` object derives
from the work itself** (span names, task names, seeds, counts, sim-time
figures), so two runs of the same deterministic command produce ledgers
that are byte-identical after :func:`strip_wall` -- the same contract
``BENCH_*.json`` documents make via ``strip_wall_clock``.  All
wall-clock-dependent values (timestamps, durations, pids, worker
assignment, queue waits) live under ``wall``.

Crash behaviour: records are flushed line-by-line, and span records are
written when the span *ends* -- so an interrupted run leaves a valid,
truncated-but-parseable file, and :meth:`RunLedger.close` (call it from
a ``finally``) ends any still-open spans with ``status: "aborted"``.
:func:`read_ledger` additionally tolerates a torn final line.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Any, Iterator, Optional, Union

from .. import doc as _doc
from ..doc import WALL_KEY, strip_wall  # noqa: F401 - re-exported

#: schema tag of the run ledger
LEDGER_SCHEMA = "repro-events/1"


class LedgerError(_doc.DocError):
    """A malformed ledger file or misuse of the ledger API."""


class Span:
    """One timed, named, nestable unit of work.

    Use as a context manager (the usual way) or call :meth:`end`
    explicitly.  An exception ending the span records
    ``status: "error"`` plus the exception repr, then propagates.
    """

    __slots__ = ("ledger", "sid", "parent", "name", "attrs", "wall",
                 "_t0", "_wall_t0", "closed")

    def __init__(self, ledger: "RunLedger", sid: int,
                 parent: Optional[int], name: str,
                 attrs: Optional[dict] = None) -> None:
        self.ledger = ledger
        self.sid = sid
        self.parent = parent
        self.name = name
        self.attrs: dict = dict(attrs or {})
        #: extra wall-clock fields merged into the span's ``wall`` object
        self.wall: dict = {}
        self._t0 = time.perf_counter()
        self._wall_t0 = time.time()
        self.closed = False

    def event(self, name: str, **attrs: Any) -> None:
        """A point event parented to this span."""
        self.ledger.event(name, parent=self.sid, **attrs)

    def end(self, status: str = "ok") -> None:
        if self.closed:
            return
        self.closed = True
        wall = {
            "t0_s": round(self._wall_t0, 6),
            "dur_s": round(time.perf_counter() - self._t0, 6),
        }
        wall.update(self.wall)
        self.ledger._write_span(self, status, wall)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc_type is None:
            self.end()
        else:
            self.attrs["error"] = repr(exc)
            self.end(status="error")


class _NullSpan:
    """The no-op span handed out when no ledger is active: every method
    exists and does nothing, so instrumented code never branches."""

    sid = None

    @property
    def attrs(self) -> dict:
        # a fresh dict per access: writes are discarded, never shared
        return {}

    @property
    def wall(self) -> dict:
        return {}

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def end(self, status: str = "ok") -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class RunLedger:
    """Writes one ``repro-events/1`` JSONL ledger, span by span.

    Spans form a stack: :meth:`span` without an explicit ``parent``
    nests under the innermost open span, which is what CLI pipelines
    want (root verb span -> stage spans -> per-point spans).
    """

    def __init__(
        self,
        destination: Union[str, Path, IO[str]],
        verb: str = "",
        argv: Optional[list] = None,
    ) -> None:
        if hasattr(destination, "write"):
            self.stream: IO[str] = destination  # type: ignore[assignment]
            self._owns = False
        else:
            path = Path(destination)
            if path.parent and not path.parent.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
            self.stream = open(path, "w")
            self._owns = True
        self.verb = verb
        self._next_sid = 1
        self._stack: list[Span] = []
        self.spans = 0
        self.events = 0
        self.closed = False
        self._t0 = time.perf_counter()
        self._write({
            "record": "meta",
            "schema": LEDGER_SCHEMA,
            "verb": verb,
            "argv": list(argv or []),
            WALL_KEY: {"pid": os.getpid(),
                       "t0_s": round(time.time(), 6)},
        })

    # -- record output ------------------------------------------------------

    def _write(self, record: dict) -> None:
        self.stream.write(_doc.compact(record))
        self.stream.write("\n")
        # line-at-a-time flush: a crash mid-run still leaves a valid,
        # truncated-but-parseable ledger (spans are coarse, so this is
        # a few dozen flushes per verb, not per simulated event)
        self.stream.flush()

    def _write_span(self, span: Span, status: str, wall: dict) -> None:
        if span in self._stack:
            self._stack.remove(span)
        self.spans += 1
        record = {
            "record": "span",
            "sid": span.sid,
            "parent": span.parent,
            "name": span.name,
            "status": status,
            WALL_KEY: wall,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        self._write(record)

    # -- the span API -------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span (new spans nest under it)."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, parent: Optional[int] = None,
             **attrs: Any) -> Span:
        """Open a nested span; close it via ``with`` or :meth:`end`."""
        if parent is None and self._stack:
            parent = self._stack[-1].sid
        span = Span(self, self._next_sid, parent, name, attrs)
        self._next_sid += 1
        self._stack.append(span)
        return span

    def event(self, name: str, parent: Optional[int] = None,
              wall: Optional[dict] = None, **attrs: Any) -> None:
        """Record a point event (no duration)."""
        if parent is None and self._stack:
            parent = self._stack[-1].sid
        self.events += 1
        record: dict = {
            "record": "event",
            "sid": self._next_sid,
            "parent": parent,
            "name": name,
            WALL_KEY: {"t_s": round(time.time(), 6),
                       **(wall or {})},
        }
        self._next_sid += 1
        if attrs:
            record["attrs"] = attrs
        self._write(record)

    def tick(self, name: str, **wall: Any) -> None:
        """A wall-only progress record for live ``--follow`` readers.

        Ticks carry no sid and keep their entire payload under ``wall``:
        they exist for a human (or ``repro obs ledger --follow``)
        watching the run, and vanish from the stripped rerun-comparable
        view -- emitting them in nondeterministic completion order is
        therefore safe.
        """
        self._write({
            "record": "tick",
            "name": name,
            WALL_KEY: {"t_s": round(time.time(), 6), **wall},
        })

    def append_span(self, name: str, attrs: dict, wall: dict,
                    parent: Optional[int] = None,
                    status: str = "ok") -> None:
        """Write a span whose timing was measured elsewhere -- the bench
        worker pool uses this to ledger per-point spans measured inside
        worker processes (the propagated context supplies ``parent``)."""
        if parent is None and self._stack:
            parent = self._stack[-1].sid
        self.spans += 1
        record = {
            "record": "span",
            "sid": self._next_sid,
            "parent": parent,
            "name": name,
            "status": status,
            WALL_KEY: dict(wall),
        }
        self._next_sid += 1
        if attrs:
            record["attrs"] = dict(attrs)
        self._write(record)

    def close(self, status: str = "ok") -> None:
        """End open spans (as ``aborted``), write the close record and
        release the stream.  Safe to call twice."""
        if self.closed:
            return
        while self._stack:
            self._stack[-1].end(status="aborted")
        self._write({
            "record": "close",
            "status": status,
            "spans": self.spans,
            "events": self.events,
            WALL_KEY: {
                "dur_s": round(time.perf_counter() - self._t0, 6),
            },
        })
        self.closed = True
        self.stream.flush()
        if self._owns:
            self.stream.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.close(status="ok" if exc_type is None else "error")


# -- the ambient ledger --------------------------------------------------------

#: the process-wide active ledger (the CLI sets it; instrumented code
#: reaches it through :func:`span` / :func:`event`, which are no-ops
#: when nothing is active)
_CURRENT: Optional[RunLedger] = None


def set_ledger(ledger: Optional[RunLedger]) -> Optional[RunLedger]:
    """Install ``ledger`` as the ambient ledger; returns the previous
    one so callers can restore it."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = ledger
    return previous


def get_ledger() -> Optional[RunLedger]:
    return _CURRENT


def span(name: str, **attrs: Any):
    """A span on the ambient ledger, or a shared no-op span."""
    if _CURRENT is None:
        return NULL_SPAN
    return _CURRENT.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """A point event on the ambient ledger (no-op without one)."""
    if _CURRENT is not None:
        _CURRENT.event(name, **attrs)


def tick(name: str, **wall: Any) -> None:
    """A progress tick on the ambient ledger (no-op without one)."""
    if _CURRENT is not None:
        _CURRENT.tick(name, **wall)


# -- reading and validation ----------------------------------------------------

def read_ledger(path: Union[str, Path]) -> list[dict]:
    """Parse a ledger file into its records.

    A torn final line (the process died mid-write) is tolerated and
    dropped; a line anywhere else that is not a JSON object raises
    :class:`LedgerError`.
    """
    return [record for _lineno, record in _doc.read_jsonl(
        path, torn_tail=True, error=LedgerError)]


_SPAN_SHAPE = {"sid": int, "name": str, WALL_KEY: dict,
               "parent?": (int, None)}

#: record kind -> shape (ticks are wall-only: no sid, checked below)
RECORD_SHAPES = {
    "meta": {},
    "span": _SPAN_SHAPE,
    "event": _SPAN_SHAPE,
    "tick": {"name": str, WALL_KEY: dict},
    "close": {},
}


def validate_ledger(records: list[dict]) -> list[str]:
    """Structural problems with a parsed ledger (empty list == valid)."""
    problems: list[str] = []
    if not records:
        return ["ledger is empty"]
    head = records[0]
    if not isinstance(head, dict) or head.get("record") != "meta":
        problems.append("first record must be the 'meta' record")
    elif head.get("schema") != LEDGER_SCHEMA:
        problems.append(
            f"meta.schema: expected {LEDGER_SCHEMA!r}, "
            f"got {head.get('schema')!r}"
        )
    sids: set = set()
    for i, record in enumerate(records):
        where = f"records[{i}]"
        kind = record.get("record") if isinstance(record, dict) else None
        if kind not in RECORD_SHAPES:
            problems.append(f"{where}: unknown record kind {kind!r}")
            continue
        problems += _doc.check(record, RECORD_SHAPES[kind], where)
        sid = record.get("sid")
        if kind == "tick" and "sid" in record:
            problems.append(
                f"{where}: ticks are wall-only, must not carry 'sid'")
        elif isinstance(sid, int):
            if sid in sids:
                problems.append(f"{where}: duplicate sid {sid}")
            sids.add(sid)
    return problems


def strip_wall_ledger(records: list[dict]) -> list[dict]:
    """Rerun-comparable view of a whole ledger: wall fields dropped,
    ticks dropped wholesale (their count and order are wall-dependent
    by design), spans in sid order (parallel sweeps complete, and
    therefore ledger, points in wall-clock order; sids are assigned
    deterministically).  Idempotent: stripping a stripped ledger is a
    no-op."""
    stripped = [strip_wall(r) for r in records
                if r.get("record") != "tick"]
    stripped.sort(
        key=lambda r: (0 if r.get("record") == "meta" else
                       2 if r.get("record") == "close" else 1,
                       r.get("sid", 0))
    )
    return stripped


def iter_spans(records: list[dict]) -> Iterator[dict]:
    for record in records:
        if record.get("record") == "span":
            yield record


def summarize_ledger(records: list[dict]) -> str:
    """A human-readable ledger report: the span tree with durations,
    event counts and the close status."""
    meta = records[0] if records else {}
    spans = list(iter_spans(records))
    events = [r for r in records if r.get("record") == "event"]
    close = next((r for r in records if r.get("record") == "close"),
                 None)
    lines = [
        f"repro-events/1 ledger: verb={meta.get('verb') or '?'}  "
        f"{len(spans)} span(s), {len(events)} event(s)"
        + (f", status={close['status']}" if close else " (no close "
           "record: the run was interrupted)")
    ]
    children: dict[Optional[int], list[dict]] = {}
    for s in spans:
        children.setdefault(s.get("parent"), []).append(s)
    roots = [s for s in spans
             if not any(p.get("sid") == s.get("parent") for p in spans)]

    def walk(span: dict, depth: int) -> None:
        wall = span.get(WALL_KEY, {})
        dur = wall.get("dur_s")
        dur_text = f"{dur:9.3f}s" if isinstance(dur, (int, float)) \
            else "        ?"
        status = span.get("status", "?")
        mark = "" if status == "ok" else f"  [{status}]"
        lines.append(
            f"  {dur_text}  {'  ' * depth}{span.get('name')}{mark}"
        )
        for child in children.get(span.get("sid"), []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    for e in events:
        lines.append(f"      event  {e.get('name')} "
                     f"{e.get('attrs', {})}")
    return "\n".join(lines)


# -- live following ------------------------------------------------------------

def follow_ledger(
    path: Union[str, Path],
    poll_s: float = 0.2,
    timeout_s: Optional[float] = 300.0,
    clock=time.monotonic,
    sleep=time.sleep,
) -> Iterator[dict]:
    """Tail a ledger as it is written, yielding records as they land.

    The writer flushes line by line, so a ``--follow`` reader sees each
    record the moment its span ends (or its tick fires).  Waits for the
    file to appear (start the follower first, then the run), buffers
    torn partial lines until the writer completes them, and returns
    after yielding the ``close`` record.  ``timeout_s`` bounds the whole
    follow (``None`` follows forever); expiry raises
    :class:`LedgerError` so a follower of a crashed run terminates.
    """
    path = Path(path)
    deadline = None if timeout_s is None else clock() + timeout_s
    while not path.exists():
        if deadline is not None and clock() > deadline:
            raise LedgerError(
                f"{path}: no ledger appeared within {timeout_s:g}s"
            )
        sleep(poll_s)
    buffer = ""
    with open(path, "r") as stream:
        while True:
            chunk = stream.read()
            if chunk:
                buffer += chunk
                *complete, buffer = buffer.split("\n")
                for line in complete:
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        raise LedgerError(
                            f"{path}: malformed ledger line while "
                            "following"
                        ) from None
                    yield record
                    if isinstance(record, dict) \
                            and record.get("record") == "close":
                        return
                continue  # drained a chunk: poll again immediately
            if deadline is not None and clock() > deadline:
                raise LedgerError(
                    f"{path}: no close record within {timeout_s:g}s "
                    "(is the run still alive?)"
                )
            sleep(poll_s)


def render_follow_record(record: dict) -> Optional[str]:
    """One human-readable line per followed record (None = skip).

    Progress ticks (``bench.progress``, ``pool.heartbeat``) render as
    in-flight status lines; ``bench.point`` spans as completed points
    (the whole sweep's deterministic record, appended post-sweep);
    other spans and events as their names.
    """
    kind = record.get("record")
    wall = record.get(WALL_KEY, {})
    if kind == "meta":
        return (f"following repro {record.get('verb') or '?'} "
                f"(pid {wall.get('pid', '?')})")
    if kind == "tick":
        name = record.get("name")
        if name == "bench.progress":
            status = "ok" if wall.get("ok") else "FAILED"
            dur = wall.get("dur_s")
            dur_text = f" {dur:.2f}s" if isinstance(dur, (int, float)) \
                else ""
            return (f"  [{wall.get('done', '?')}/{wall.get('total', '?')}]"
                    f" {wall.get('task', '?')} {status}{dur_text}")
        if name == "pool.heartbeat":
            return (f"  pool: {wall.get('busy', 0)} busy, "
                    f"{wall.get('pending', 0)} pending, "
                    f"{wall.get('tasks_done', 0)} done")
        return f"  tick {name}"
    if kind == "span":
        name = record.get("name")
        dur = wall.get("dur_s")
        dur_text = f" {dur:.2f}s" if isinstance(dur, (int, float)) else ""
        if name == "bench.point":
            attrs = record.get("attrs", {})
            return (f"  point {attrs.get('task', '?')} "
                    f"{record.get('status', '?')}{dur_text}")
        return f"  span {name} {record.get('status', '?')}{dur_text}"
    if kind == "event":
        return f"  event {record.get('name')} {record.get('attrs', {})}"
    if kind == "close":
        return (f"ledger closed: status={record.get('status')} "
                f"spans={record.get('spans')} "
                f"events={record.get('events')}")
    return None
