"""Protocol event tracing.

Paper section 9: "An important part of this will be the installation of
instrumentation for performance monitoring, analysis, and visualization
... useful to application programmers, compiler writers, and system
implementors."  This module is that instrumentation interface: when
enabled, every protocol action -- faults with their transitions,
shootdowns, block transfers, freezes, thaws, defrost runs -- is recorded
as a timestamped event that can be queried and rendered as a per-page
timeline.

Tracing is off by default (it retains every event in memory); enable it
per kernel with ``make_kernel(trace=True)`` or
``kernel.coherent.tracer.enable()``.

Two retention modes bound memory.  The default keeps the *first*
``max_events`` events and counts the rest as ``dropped`` -- right for
short runs where the interesting activity is at the start.  Ring mode
(``ProtocolTracer(ring=True)`` or :meth:`ProtocolTracer.use_ring`) keeps
the *last* ``max_events``, evicting the oldest -- right for long fuzz or
soak runs where only the window leading up to a failure matters.

For runs too long for either mode, attach a streaming *sink*
(:meth:`ProtocolTracer.add_sink`, see ``repro.telemetry.export``): every
accepted event is forwarded to each sink the moment it is recorded,
independently of in-memory retention, and ``tracer.retain = False``
turns retention off entirely so the full history lives only on disk.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, MutableSequence, Optional


class EventKind(enum.Enum):
    FAULT = "fault"
    SHOOTDOWN = "shootdown"
    TRANSFER = "transfer"
    FREEZE = "freeze"
    THAW = "thaw"
    DEFROST_RUN = "defrost_run"


@dataclass(slots=True, unsafe_hash=True)
class TraceEvent:
    """One timestamped protocol action.

    ``eid``/``cause`` carry the causal structure the profiler consumes:
    an event reserved an id (:meth:`ProtocolTracer.reserve`) when other
    events name it as their parent -- a fault is the cause of the
    shootdowns and transfers its handler performed, a defrost run is the
    cause of its thaws, a thaw is the cause of its invalidation
    shootdown.  Both stay ``None`` for standalone events.
    """

    time: int
    kind: EventKind
    cpage_index: Optional[int]
    processor: Optional[int]
    detail: dict[str, Any] = field(default_factory=dict)
    eid: Optional[int] = None
    cause: Optional[int] = None

    def record(self) -> dict:
        """The event as its JSONL record (trace exports, profile
        bundles).  The causal ids are additive: absent keys keep
        pre-profiler traces and hand-recorded events byte-identical."""
        record = {
            "time": self.time,
            "kind": self.kind.value,
            "cpage": self.cpage_index,
            "proc": self.processor,
            "detail": self.detail,
        }
        if self.eid is not None:
            record["eid"] = self.eid
        if self.cause is not None:
            record["cause"] = self.cause
        return record

    def describe(self) -> str:
        where = (
            f"cpage {self.cpage_index}" if self.cpage_index is not None
            else "-"
        )
        who = f"cpu{self.processor}" if self.processor is not None else ""
        detail = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return (
            f"{self.time / 1e6:12.3f} ms  {self.kind.value:<11} "
            f"{where:<10} {who:<6} {detail}"
        )


class ProtocolTracer:
    """Collects protocol events; disabled tracers cost one branch."""

    def __init__(
        self,
        enabled: bool = False,
        max_events: int = 1_000_000,
        ring: bool = False,
    ):
        self.enabled = enabled
        self.max_events = max_events
        self.ring = ring
        self.events: MutableSequence[TraceEvent] = (
            deque(maxlen=max_events) if ring else []
        )
        self.dropped = 0
        #: streaming sinks (repro.telemetry.export); every accepted
        #: event is forwarded to each, regardless of retention
        self.sinks: list = []
        #: when False, events go to sinks only -- nothing is retained
        self.retain = True
        self._next_eid = 0

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def use_ring(self, max_events: Optional[int] = None) -> None:
        """Switch to ring-buffer retention, keeping the newest events.

        Already-recorded events beyond the cap are evicted oldest-first
        and counted as ``dropped``.
        """
        if max_events is not None:
            self.max_events = max_events
        self.ring = True
        before = len(self.events)
        self.events = deque(self.events, maxlen=self.max_events)
        self.dropped += before - len(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self._next_eid = 0

    def reserve(self) -> Optional[int]:
        """Allocate an event id before the event itself is recorded.

        Needed because recording order is not causal order: a fault event
        is recorded *after* the shootdowns and transfers its handler
        performed, yet those children must name the fault as their
        ``cause``.  Returns ``None`` when the tracer is disabled (ids are
        only allocated on traced runs, keeping same-seed traces
        byte-identical).
        """
        if not self.enabled:
            return None
        eid = self._next_eid
        self._next_eid += 1
        return eid

    # -- sinks ------------------------------------------------------------------

    def add_sink(self, sink) -> None:
        """Stream every subsequently recorded event to ``sink``.

        Also enables the tracer: a sink without events would silently
        record nothing.
        """
        self.sinks.append(sink)
        self.enabled = True

    def remove_sink(self, sink) -> None:
        try:
            self.sinks.remove(sink)
        except ValueError:
            pass

    def close_sinks(self) -> None:
        """Finalize every attached sink (flush files, close spans)."""
        for sink in self.sinks:
            sink.close()

    def record(
        self,
        time: int,
        kind: EventKind,
        cpage_index: Optional[int] = None,
        processor: Optional[int] = None,
        eid: Optional[int] = None,
        cause: Optional[int] = None,
        **detail: Any,
    ) -> None:
        if not self.enabled:
            return
        event = TraceEvent(time, kind, cpage_index, processor, detail,
                           eid=eid, cause=cause)
        for sink in self.sinks:
            sink.emit(event)
        if not self.retain:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            if not self.ring:
                return
        self.events.append(event)

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def ordered(self) -> list[TraceEvent]:
        """All events sorted by timestamp.

        Recording order can differ slightly: a fault event is stamped
        with the fault's start time but recorded after the block
        transfers it performed, which are stamped mid-handler.
        """
        return sorted(self.events, key=lambda e: e.time)

    def by_kind(self, kind: EventKind) -> list[TraceEvent]:
        return [e for e in self.ordered() if e.kind is kind]

    def by_cpage(self, cpage_index: int) -> list[TraceEvent]:
        return [e for e in self.ordered() if e.cpage_index == cpage_index]

    def by_processor(self, processor: int) -> list[TraceEvent]:
        return [e for e in self.ordered() if e.processor == processor]

    def between(self, start: float, end: float) -> list[TraceEvent]:
        return [e for e in self.ordered() if start <= e.time < end]

    def counts(self) -> dict[str, int]:
        return dict(Counter(e.kind.value for e in self.events))

    # -- rendering ------------------------------------------------------------------

    def timeline(
        self, cpage_index: Optional[int] = None, limit: int = 50
    ) -> str:
        """A readable event timeline, optionally for one Cpage."""
        events = (
            self.by_cpage(cpage_index)
            if cpage_index is not None
            else self.ordered()
        )
        header = (
            f"protocol trace ({len(events)} events"
            + (f" for cpage {cpage_index}" if cpage_index is not None
               else "")
            + (f", showing first {limit}" if len(events) > limit else "")
            + ")"
        )
        lines = [header]
        lines.extend(e.describe() for e in events[:limit])
        if self.dropped:
            lines.append(
                f"... {self.dropped} oldest events evicted (ring mode)"
                if self.ring
                else f"... {self.dropped} events dropped at the cap"
            )
        return "\n".join(lines)

    def transitions_of(self, cpage_index: int) -> list[tuple[str, str]]:
        """The (from_state, to_state) sequence one page went through."""
        out = []
        for event in self.by_cpage(cpage_index):
            if event.kind is EventKind.FAULT:
                out.append(
                    (event.detail.get("from"), event.detail.get("to"))
                )
        return out
