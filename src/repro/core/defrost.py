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

from typing import Optional

from ..machine.machine import Machine
from ..machine.pmap import Rights
from ..sim.engine import Daemon
from .cmap import Directive
from .cpage import Cpage
from ..policy.base import ReplicationPolicy
from .shootdown import ShootdownMechanism
from .trace import Observers

#: bound once, as in core/fault.py: read on every thaw
_INVALIDATE, _NONE = Directive.INVALIDATE, Rights.NONE


class DefrostDaemon(Daemon):
    """Periodically thaws every frozen Cpage."""

    def __init__(
        self,
        machine: Machine,
        shootdown: ShootdownMechanism,
        policy: ReplicationPolicy,
        period: Optional[float] = None,
        observers: Optional[Observers] = None,
    ) -> None:
        self.machine = machine
        self.shootdown = shootdown
        self.policy = policy
        #: told of every thaw and daemon run (repro.core.trace)
        self.observers = observers if observers is not None else Observers()
        self.period = (
            period if period is not None
            else machine.params.t2_defrost_period
        )
        self.runs = 0
        self.pages_thawed = 0

    def run_once(self) -> int:
        """Thaw all currently frozen pages; returns how many."""
        self.runs += 1
        thawed = 0
        now = self.machine.engine.now
        run_eid = self.observers.new_eid()
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
        for observer in self.observers:
            observer.defrost_run(now, run_eid, thawed)
        return thawed

    def thaw_page(
        self, cpage: Cpage, now: int, cause: Optional[int] = None
    ) -> None:
        """Invalidate every mapping to a frozen page and un-freeze it."""
        eid = self.observers.new_eid()
        self.invalidate_mappings(cpage, now, cause=eid)
        self.policy.thaw(cpage, now)
        cost = self.machine.params.shootdown_per_cpu
        for observer in self.observers:
            observer.thaw(now, cpage, cpage.home_module, eid, cause, cost)

    def invalidate_mappings(
        self, cpage: Cpage, now: int, cause: Optional[int] = None
    ) -> None:
        """Housekeeping invalidation: shoot down every mapping to
        ``cpage`` from its home node, as asynchronous kernel work there.

        Shared with the section 8 migration daemon.  It is not
        interprocessor interference, so the page's last-invalidation
        timestamp and invalidation count are left as they were.
        """
        saved = cpage.last_invalidation
        initiator = cpage.home_module
        self.shootdown.shoot_cpage(
            cpage,
            _INVALIDATE,
            initiator,
            now,
            modules=None,
            rights=_NONE,
            cause=cause,
        )
        # daemon time is asynchronous kernel work on the initiating node
        self.machine.interrupts.charge(
            initiator, self.machine.params.shootdown_per_cpu
        )
        cpage.last_invalidation = saved
        cpage.stats.invalidations -= 1  # not a protocol invalidation
        cpage.has_write_mapping = False
        cpage.recompute_state()
