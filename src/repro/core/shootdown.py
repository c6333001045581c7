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

from typing import Iterable, Optional

from ..machine.machine import Machine
from ..machine.pmap import Rights
from .cmap import Cmap, CmapEntry, CmapMessage, Directive
from .cpage import Cpage
from .trace import Observers

#: bound once: a member load through the Enum class costs ~13 global loads
_INVALIDATE = Directive.INVALIDATE


class ShootdownMechanism:
    """Restricts or invalidates mappings across processors."""

    def __init__(
        self, machine: Machine, observers: Optional[Observers] = None
    ) -> None:
        self.machine = machine
        #: told of every shootdown and Cmap-queue application
        #: (repro.core.trace)
        self.observers = observers if observers is not None else Observers()
        self.shootdowns = 0
        self.total_interrupted = 0
        self.total_deferred = 0
        p = machine.params  # the initiator's cost of interrupts (section 4)
        self._first, self._per_cpu = p.shootdown_first, p.shootdown_per_cpu

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
    ) -> int:
        """Apply a mapping change for ``cpage`` in every address space;
        returns the time (ns) the initiator spends synchronizing with
        the processors it interrupted.

        ``modules`` limits the change to translations referencing frames on
        those memory modules (used when freeing specific replicas: only
        "translations for the remote physical copies" are invalidated,
        section 3.3).  ``None`` means all translations.
        """
        interrupted = deferred = 0
        hits = []
        for cmap, vpage in cpage.bindings:
            entry = cmap.entries.get(vpage)
            if entry is not None and entry.ref_mask:
                hit, missed = self._shoot_one(
                    cmap, entry, directive, rights, initiator, now, modules)
                interrupted |= hit
                hits.append(hit)
                deferred |= missed
        if directive is _INVALIDATE:
            cpage.stats.invalidations += 1
        else:
            cpage.stats.restrictions += 1
        n = interrupted.bit_count()
        cost = self._first + (n - 1) * self._per_cpu if n else 0
        self.shootdowns += 1
        self.total_interrupted += n
        if deferred:
            self.total_deferred += deferred.bit_count()
        for observer in self.observers:
            observer.shootdown(now, cpage, directive, initiator, cause,
                               cost, interrupted, deferred, hits)
        return cost

    def _shoot_one(
        self,
        cmap: Cmap,
        entry: CmapEntry,
        directive: Directive,
        rights: Rights,
        initiator: int,
        now: int,
        modules: Optional[set[int]],
    ) -> tuple[int, int]:
        """Change one page's translations in one address space: one walk
        of the reference mask's set bits, lowest processor first.
        Returns the masks of the processors interrupted and deferred.

        A target with the address space active is interrupted and has
        applied (and acknowledged) the change by the time this returns;
        only the targets left over are deferred, so only their message
        reaches the Cmap queue.
        """
        vpage = entry.vpage
        invalidate = directive is _INVALIDATE
        key = (cmap.aspace_id, vpage)
        pmaps = cmap._pmaps
        active = cmap.active_mask
        machine = self.machine
        mmus = machine.mmus
        ipi_state = machine.interrupts.state
        ipi_cost = machine.params.ipi_target_cost
        interrupted = deferred = 0
        mask = entry.ref_mask
        while mask:
            bit = mask & -mask
            mask ^= bit
            proc = bit.bit_length() - 1
            pmap = pmaps.get(proc)
            pentry = pmap._entries.get(vpage) if pmap is not None else None
            if pentry is None:
                # the reference mask is conservative: the processor may
                # have dropped the translation already; just clear the bit
                if invalidate and modules is None:
                    entry.ref_mask &= ~bit
            elif modules is None or pentry.frame.module_index in modules:
                if proc != initiator and not active & bit:
                    deferred |= bit  # applied on activation
                else:
                    # the initiator updates its own structures directly;
                    # anyone else is interrupted to
                    if proc != initiator:
                        # InterruptController.send_ipi, in place
                        ipi_state[initiator].ipis_sent += 1
                        st = ipi_state[proc]
                        st.ipis_received += 1
                        st.pending_penalty += ipi_cost
                        interrupted |= bit
                    # MMU.invalidate_page / restrict_page, in place
                    atc = mmus[proc].atc
                    if atc._entries.pop(key, None) is not None:
                        atc.flushes += 1
                    if invalidate:
                        del pmap._entries[vpage]
                    else:
                        pmap.restrict(vpage, rights)
                if invalidate:
                    entry.ref_mask &= ~bit
        if deferred:
            cmap.post_message(
                CmapMessage(vpage, directive, rights, deferred, now))
        elif interrupted:
            cmap.messages_posted += 1  # and retired, inside this call
        cmap.messages_applied += interrupted.bit_count()
        return interrupted, deferred

    # -- address-space activation ----------------------------------------------

    def apply_pending(self, cmap: Cmap, proc: int) -> tuple[int, int]:
        """Apply all queued messages targeting ``proc`` (on activation).

        Returns ``(n_applied, cost)``; the caller charges the cost.
        """
        pending = cmap.pending_for(proc)
        mmu = self.machine.mmus[proc]
        for message in pending:
            if message.directive is _INVALIDATE:
                mmu.invalidate_page(cmap.aspace_id, message.vpage)
            else:
                mmu.restrict_page(
                    cmap.aspace_id, message.vpage, message.rights)
            cmap.acknowledge(message, proc)
        cost = self.machine.params.ipi_target_cost if pending else 0
        if pending:
            for observer in self.observers:
                observer.apply_pending(cmap, proc, pending)
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
    ) -> int:
        """Restrict/invalidate a set of virtual pages in one address space
        (used by the virtual memory layer for unmap and protect); returns
        the initiator's cost, as :meth:`shoot_cpage` does."""
        interrupted = deferred = 0
        hits = []
        for vpage in vpages:
            entry = cmap.entries.get(vpage)
            if entry is not None:
                hit, missed = self._shoot_one(
                    cmap, entry, directive, rights, initiator, now, None)
                interrupted |= hit
                hits.append(hit)
                deferred |= missed
        n = interrupted.bit_count()
        cost = self._first + (n - 1) * self._per_cpu if n else 0
        self.shootdowns += 1
        self.total_interrupted += n
        if deferred:
            self.total_deferred += deferred.bit_count()
        for observer in self.observers:
            observer.shootdown(now, None, directive, initiator, None,
                               cost, interrupted, deferred, hits)
        return cost
