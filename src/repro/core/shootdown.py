"""The NUMA shootdown mechanism (paper section 3.1).

When the protocol restricts or invalidates mappings, the initiating
processor posts a :class:`~repro.core.cmap.CmapMessage` to the Cmap message
queue of every affected address space, with a target mask limited to the
processors whose reference-mask bit shows they actually hold a translation.
Targets with the address space *active* are interrupted and apply the
change immediately; the rest apply the queue when they next activate the
address space -- this is what makes PLATINUM's shootdown cheap compared to
Mach's interrupt-everyone approach (~7 us vs 55 us per processor).

Because the discrete-event engine serializes events, an interrupted
target's Pmap/ATC state is updated at the initiator's current simulated
time, while the time the target spends in its interrupt handler is charged
to it as a pending penalty (see ``repro.machine.interrupts``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..machine.machine import Machine
from ..machine.pmap import Rights
from ..telemetry.metrics import MetricsRegistry
from .cmap import Cmap, CmapMessage, Directive
from .cpage import Cpage
from .trace import EventKind, ProtocolTracer


@dataclass
class ShootdownResult:
    """Accounting for one shootdown operation."""

    #: time the initiator spent synchronizing with targets (ns)
    initiator_cost: int
    #: processors interrupted (address space active)
    interrupted: list[int] = field(default_factory=list)
    #: processors whose update was deferred to address-space activation
    deferred: list[int] = field(default_factory=list)
    #: messages posted to Cmap queues
    messages_posted: int = 0

    @property
    def n_targets(self) -> int:
        return len(self.interrupted) + len(self.deferred)


class ShootdownMechanism:
    """Restricts or invalidates mappings across processors."""

    def __init__(
        self,
        machine: Machine,
        tracer: ProtocolTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.machine = machine
        self.tracer = tracer if tracer is not None else ProtocolTracer()
        self.shootdowns = 0
        self.total_interrupted = 0
        self.total_deferred = 0
        #: called after every completed shootdown / queue application
        #: (the repro.check invariant checker hooks here)
        self.post_action_hooks: list[Callable[[], None]] = []
        m = metrics if metrics is not None else MetricsRegistry()
        self.metrics = m
        self._m_shootdowns = m.counter(
            "shootdowns_total", "mapping shootdown operations",
            labels=("directive",))
        self._m_ipis = m.counter(
            "shootdown_ipis_total",
            "IPIs sent to targets with the address space active",
            labels=("target",))
        self._m_deferred = m.counter(
            "shootdown_deferred_total",
            "shootdown updates deferred to address-space activation")

    # -- protocol-driven shootdowns (by Cpage) --------------------------------

    def shoot_cpage(
        self,
        cpage: Cpage,
        directive: Directive,
        initiator: int,
        now: int,
        modules: Optional[set[int]] = None,
        rights: Rights = Rights.READ,
        cause: Optional[int] = None,
    ) -> ShootdownResult:
        """Apply a mapping change for ``cpage`` in every address space.

        ``modules`` limits the change to translations referencing frames on
        those memory modules (used when freeing specific replicas: only
        "translations for the remote physical copies" are invalidated,
        section 3.3).  ``None`` means all translations.
        """
        result = ShootdownResult(initiator_cost=0)
        interrupted: set[int] = set()
        deferred: set[int] = set()
        for cmap, vpage in list(cpage.bindings):
            entry = cmap.entries.get(vpage)
            if entry is None or entry.ref_mask == 0:
                continue
            self._shoot_one(
                cmap,
                vpage,
                directive,
                rights,
                initiator,
                now,
                modules,
                result,
                interrupted,
                deferred,
            )
        result.interrupted = sorted(interrupted)
        result.deferred = sorted(deferred)
        result.initiator_cost = self._initiator_cost(len(interrupted))
        self.shootdowns += 1
        self.total_interrupted += len(interrupted)
        self.total_deferred += len(deferred)
        if self.metrics.enabled:
            self._m_shootdowns.labels(directive.value).inc()
            self._m_deferred.inc(len(deferred))
        if directive is Directive.INVALIDATE:
            cpage.stats.invalidations += 1
        else:
            cpage.stats.restrictions += 1
        if self.tracer.enabled:
            self.tracer.record(
                now, EventKind.SHOOTDOWN, cpage.index, initiator,
                cause=cause, directive=directive.value,
                interrupted=len(result.interrupted),
                deferred=len(result.deferred),
                cost=result.initiator_cost,
                targets=result.interrupted,
            )
        for hook in self.post_action_hooks:
            hook()
        return result

    def _shoot_one(
        self,
        cmap: Cmap,
        vpage: int,
        directive: Directive,
        rights: Rights,
        initiator: int,
        now: int,
        modules: Optional[set[int]],
        result: ShootdownResult,
        interrupted: set[int],
        deferred: set[int],
    ) -> None:
        entry = cmap.entries[vpage]
        targets: list[int] = []
        for proc in _bits(entry.ref_mask):
            pmap = cmap.pmap_for(proc)
            pentry = pmap.lookup(vpage) if pmap is not None else None
            if pentry is None:
                # the reference mask is conservative: the processor may have
                # dropped the translation already; just clear the bit
                if directive is Directive.INVALIDATE and modules is None:
                    entry.clear_ref(proc)
                continue
            if modules is not None and (
                pentry.frame.module_index not in modules
            ):
                continue
            targets.append(proc)
        if not targets:
            return
        target_mask = 0
        for proc in targets:
            if proc != initiator:
                target_mask |= 1 << proc
        message = CmapMessage(
            vpage=vpage,
            directive=directive,
            rights=rights,
            target_mask=target_mask,
            posted_at=now,
        )
        cmap.post_message(message)
        result.messages_posted += 1
        for proc in targets:
            if proc == initiator:
                # the initiator updates its own structures directly
                self._apply(cmap, vpage, directive, rights, proc)
                if directive is Directive.INVALIDATE:
                    entry.clear_ref(proc)
                continue
            if cmap.is_active(proc):
                self.machine.interrupts.send_ipi(
                    initiator, proc, self.machine.params.ipi_target_cost
                )
                if self.metrics.enabled:
                    self._m_ipis.labels(proc).inc()
                self._apply(cmap, vpage, directive, rights, proc)
                cmap.acknowledge(message, proc)
                interrupted.add(proc)
            else:
                deferred.add(proc)
            if directive is Directive.INVALIDATE:
                entry.clear_ref(proc)

    def _apply(
        self,
        cmap: Cmap,
        vpage: int,
        directive: Directive,
        rights: Rights,
        proc: int,
    ) -> None:
        mmu = self.machine.mmus[proc]
        if directive is Directive.INVALIDATE:
            mmu.invalidate_page(cmap.aspace_id, vpage)
        else:
            mmu.restrict_page(cmap.aspace_id, vpage, rights)

    def _initiator_cost(self, n_interrupted: int) -> int:
        if n_interrupted == 0:
            return 0
        p = self.machine.params
        return p.shootdown_first + p.shootdown_per_cpu * (n_interrupted - 1)

    # -- address-space activation ----------------------------------------------

    def apply_pending(self, cmap: Cmap, proc: int) -> tuple[int, int]:
        """Apply all queued messages targeting ``proc`` (on activation).

        Returns ``(n_applied, cost)``; the caller charges the cost.
        """
        pending = cmap.pending_for(proc)
        for message in pending:
            self._apply(cmap, message.vpage, message.directive,
                        message.rights, proc)
            cmap.acknowledge(message, proc)
        cost = self.machine.params.ipi_target_cost if pending else 0
        if pending:
            for hook in self.post_action_hooks:
                hook()
        return len(pending), cost

    # -- VM-driven shootdowns (by virtual range) ---------------------------------

    def shoot_vpages(
        self,
        cmap: Cmap,
        vpages: Iterable[int],
        directive: Directive,
        initiator: int,
        now: int,
        rights: Rights = Rights.READ,
    ) -> ShootdownResult:
        """Restrict/invalidate a set of virtual pages in one address space
        (used by the virtual memory layer for unmap and protect)."""
        result = ShootdownResult(initiator_cost=0)
        interrupted: set[int] = set()
        deferred: set[int] = set()
        for vpage in vpages:
            if vpage not in cmap.entries:
                continue
            self._shoot_one(
                cmap,
                vpage,
                directive,
                rights,
                initiator,
                now,
                None,
                result,
                interrupted,
                deferred,
            )
        result.interrupted = sorted(interrupted)
        result.deferred = sorted(deferred)
        result.initiator_cost = self._initiator_cost(len(interrupted))
        self.shootdowns += 1
        self.total_interrupted += len(interrupted)
        self.total_deferred += len(deferred)
        if self.metrics.enabled:
            self._m_shootdowns.labels(directive.value).inc()
            self._m_deferred.inc(len(deferred))
        for hook in self.post_action_hooks:
            hook()
        return result


def _bits(mask: int) -> Iterable[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1
