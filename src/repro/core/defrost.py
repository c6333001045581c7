"""The defrost daemon (paper section 4.2).

The protocol is otherwise strictly fault-driven, so a frozen Cpage would
stay frozen forever once every sharer has a mapping.  A clock interrupt
every ``t2`` (paper: 1 s) activates the defrost daemon, which invalidates
all mappings to the frozen pages and thaws them; subsequent faults may then
replicate or migrate them, letting the memory system react to program
phase changes (the section 4.2 Gauss anecdote) and rescue accidentally
frozen pages.

Thaw invalidations are housekeeping, not interprocessor interference, so
they do *not* update the pages' last-invalidation timestamps -- otherwise
every thawed page would immediately re-freeze on its next fault.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..machine.machine import Machine
from ..machine.pmap import Rights
from ..telemetry.metrics import MetricsRegistry
from .cmap import Directive
from .cpage import Cpage
from ..policy.base import ReplicationPolicy
from .shootdown import ShootdownMechanism
from .trace import EventKind, ProtocolTracer


class DefrostDaemon:
    """Periodically thaws every frozen Cpage."""

    def __init__(
        self,
        machine: Machine,
        shootdown: ShootdownMechanism,
        policy: ReplicationPolicy,
        period: Optional[float] = None,
        tracer: ProtocolTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.machine = machine
        self.shootdown = shootdown
        self.policy = policy
        self.tracer = tracer if tracer is not None else ProtocolTracer()
        m = metrics if metrics is not None else MetricsRegistry()
        self.metrics = m
        self._m_runs = m.counter(
            "defrost_runs_total", "defrost daemon activations")
        self._m_thaws = m.counter(
            "thaws_total", "cpages thawed", labels=("via",))
        self.period = (
            period if period is not None
            else machine.params.t2_defrost_period
        )
        self.enabled = True
        self.runs = 0
        self.pages_thawed = 0
        self._scheduled = False
        #: called after every thawed page and every daemon run (the
        #: repro.check invariant checker hooks here)
        self.post_action_hooks: list[Callable[[], None]] = []

    def start(self) -> None:
        """Schedule the periodic clock interrupt."""
        if self._scheduled:
            return
        self._scheduled = True
        self.machine.engine.schedule(self.period, self._tick)

    def _tick(self) -> None:
        if self.enabled:
            self.run_once()
        self.machine.engine.schedule(self.period, self._tick)

    def run_once(self) -> int:
        """Thaw all currently frozen pages; returns how many."""
        self.runs += 1
        thawed = 0
        now = self.machine.engine.now
        run_eid = self.tracer.reserve()
        for cpage in self.policy.frozen_pages:
            if cpage.thaw_exempt:
                continue
            # the policy may hold hot pages frozen past the global t2
            # (adaptive per-page deferral; the base class always thaws)
            if not self.policy.should_thaw(cpage, now):
                continue
            self.thaw_page(cpage, now, cause=run_eid)
            thawed += 1
        self.pages_thawed += thawed
        if self.metrics.enabled:
            self._m_runs.add()
        if self.tracer.enabled:
            self.tracer.record(
                now, EventKind.DEFROST_RUN, None, None, eid=run_eid,
                thawed=thawed
            )
        for hook in self.post_action_hooks:
            hook()
        return thawed

    def thaw_page(
        self, cpage: Cpage, now: int, cause: Optional[int] = None
    ) -> None:
        """Invalidate every mapping to a frozen page and un-freeze it."""
        saved = cpage.last_invalidation
        initiator = cpage.home_module
        eid = self.tracer.reserve()
        self.shootdown.shoot_cpage(
            cpage,
            Directive.INVALIDATE,
            initiator,
            now,
            modules=None,
            rights=Rights.NONE,
            cause=eid,
        )
        # daemon time is asynchronous kernel work on the initiating node
        self.machine.interrupts.charge(
            initiator, self.machine.params.shootdown_per_cpu
        )
        # a thaw is not interprocessor interference: restore the timestamp
        cpage.last_invalidation = saved
        cpage.stats.invalidations -= 1  # not a protocol invalidation
        cpage.has_write_mapping = False
        cpage.recompute_state()
        self.policy.thaw(cpage, now)
        if self.metrics.enabled:
            self._m_thaws.add("defrost")
        if self.tracer.enabled:
            self.tracer.record(
                now, EventKind.THAW, cpage.index, initiator, eid=eid,
                cause=cause, via="defrost",
                cost=self.machine.params.shootdown_per_cpu,
            )
        for hook in self.post_action_hooks:
            hook()
