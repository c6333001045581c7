"""Protocol event tracing, and the observer list protocol actions go to.

Paper section 9: "An important part of this will be the installation of
instrumentation for performance monitoring, analysis, and visualization
... useful to application programmers, compiler writers, and system
implementors."  The fault handler, the shootdown mechanism and the
defrost daemon publish each protocol action once, when it completes, to
one :class:`Observers` list: a fault, a block transfer, a shootdown (by
Cpage or by virtual pages), a Cmap-queue application, a thaw and a
defrost run.  Each observer implements one method per action (see
:class:`Observers`); the arguments name the pages and processors the
action touched.  Three observers exist: this module's
:class:`ProtocolTracer`, the metrics fold
(``repro.telemetry.metrics.ProtocolMetrics``) and the invariant checker
(``repro.check.invariants``).  An empty list costs one loop over nothing
per action.

The tracer records each action as a timestamped event that can be
queried and rendered as a per-page timeline.  It is on the list only
while enabled (off by default, since it retains every event in memory);
enable it per kernel with ``make_kernel(trace=True)`` or
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


class Observers(list):
    """The one list of protocol observers, and the causal-id counter.

    Every observer implements six methods, called in list order once
    per completed action with the state consistent unless noted:

    * ``fault(now, cpage, proc, write, eid, action, end, wait, fixed,
      state, frozen, last_inval, decision)`` -- ``state``/``frozen``/
      ``last_inval`` are the Cpage's before the fault, ``decision`` the
      ``(policy name, action value)`` pair of a policy-consulted miss or
      ``None``.  A fault that raised is published with ``action``
      ``None`` (and ``end`` = ``now``); it is still a fault taken;
    * ``transfer(now, cpage, src, dst, end, cause)`` -- a block transfer,
      mid-fault: the directory is not yet consistent;
    * ``shootdown(now, cpage, directive, initiator, cause, cost,
      interrupted, deferred, hits)`` -- processor masks, ``hits`` one
      per binding walked, in walk order; ``cpage`` is ``None`` for a
      virtual-range shootdown (unmap, protect);
    * ``apply_pending(cmap, proc, messages)`` -- queued Cmap messages
      applied on activation;
    * ``thaw(now, cpage, initiator, eid, cause, cost)`` -- a defrost thaw;
    * ``defrost_run(now, eid, thawed)``.

    ``eid``/``cause`` are causal ids (:class:`TraceEvent`).  They are
    drawn from this one counter, and only while a tracer listens
    (``tracing``), so that same-seed traces stay byte-identical.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tracing = False
        self.next_eid = 0

    def new_eid(self) -> Optional[int]:
        """A fresh causal id, or ``None`` when nothing is traced.

        Drawn when an action starts: its children (the shootdowns and
        transfers of a fault, the thaws of a defrost run) are published
        before it completes, and must name it as their ``cause``.
        """
        if not self.tracing:
            return None
        eid = self.next_eid
        self.next_eid = eid + 1
        return eid


@dataclass(slots=True, unsafe_hash=True)
class TraceEvent:
    """One timestamped protocol action.

    ``eid``/``cause`` carry the causal structure the profiler consumes:
    an action draws an id (:meth:`Observers.new_eid`) when other events
    name it as their parent -- a fault is the cause of the shootdowns
    and transfers its handler performed, a defrost run is the cause of
    its thaws, a thaw is the cause of its invalidation shootdown.  Both
    stay ``None`` for standalone events.
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
    """Collects protocol events; an observer while enabled.

    ``observers`` is the list the tracer joins (first, so that it has
    recorded an action before any later observer -- the invariant
    checker -- can raise on it); a tracer built without one gets its
    own.
    """

    def __init__(
        self,
        enabled: bool = False,
        max_events: int = 1_000_000,
        ring: bool = False,
        observers: Optional[Observers] = None,
    ):
        self.observers = observers if observers is not None else Observers()
        self.enabled = False
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
        if enabled:
            self.enable()

    def enable(self) -> None:
        self.enabled = True
        observers = self.observers
        observers.tracing = True
        if self not in observers:
            observers.insert(0, self)

    def disable(self) -> None:
        self.enabled = False
        observers = self.observers
        observers.tracing = False
        if self in observers:
            observers.remove(self)

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
        self.observers.next_eid = 0

    # -- sinks ------------------------------------------------------------------

    def add_sink(self, sink) -> None:
        """Stream every subsequently recorded event to ``sink``.

        Also enables the tracer: a sink without events would silently
        record nothing.
        """
        self.sinks.append(sink)
        self.enable()

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

    # -- the observer methods (Observers) -------------------------------------

    def fault(self, now, cpage, proc, write, eid, action, end, wait,
              fixed, state, frozen, last_inval, decision) -> None:
        if action is None:
            return  # a fault that raised leaves no event
        record = self.record
        record(now, EventKind.FAULT, cpage.index, proc, eid=eid,
               write=write, action=action, dur=end - now, wait=wait,
               fixed=fixed, last_inval=last_inval,
               **{"from": state.value, "to": cpage.state.value})
        if cpage.frozen and not frozen:
            record(now, EventKind.FREEZE, cpage.index, proc, cause=eid,
                   last_inval=last_inval)
        elif frozen and not cpage.frozen:
            record(now, EventKind.THAW, cpage.index, proc, cause=eid,
                   via="fault")

    def transfer(self, now, cpage, src, dst, end, cause) -> None:
        self.record(now, EventKind.TRANSFER, cpage.index, None, cause=cause,
                    src=src, dst=dst, dur=end - now)

    def shootdown(self, now, cpage, directive, initiator, cause, cost,
                  interrupted, deferred, hits) -> None:
        if cpage is None:
            return  # unmap/protect shootdowns are not traced
        targets = [p for p in range(interrupted.bit_length())
                   if interrupted >> p & 1]
        self.record(now, EventKind.SHOOTDOWN, cpage.index, initiator,
                    cause=cause, directive=directive.value,
                    interrupted=len(targets),
                    deferred=deferred.bit_count(),
                    cost=cost, targets=targets)

    def apply_pending(self, cmap, proc, messages) -> None:
        pass  # Cmap-queue applications are not traced

    def thaw(self, now, cpage, initiator, eid, cause, cost) -> None:
        self.record(now, EventKind.THAW, cpage.index, initiator, eid=eid,
                    cause=cause, via="defrost", cost=cost)

    def defrost_run(self, now, eid, thawed) -> None:
        self.record(now, EventKind.DEFROST_RUN, None, None, eid=eid,
                    thawed=thawed)

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
