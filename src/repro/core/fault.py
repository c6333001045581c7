"""The coherent page fault handler (paper sections 3.2 and 3.3).

All protocol transitions are initiated here.  On a fault the handler:

1. serializes with other faults on the same Cpage (the per-Cpage handler
   lock whose contention the kernel reports, section 5.1);
2. pays the fixed overhead -- smaller when the Cpage's kernel metadata is
   local to the faulting processor (0.23 ms vs 0.27 ms, section 4);
3. looks for a *local* physical copy through the local inverted page table
   (strictly local references, section 3.3);
4. if a miss remains, consults the replication policy and either caches the
   page locally (replicate/migrate: block transfer + any shootdown) or
   creates a remote mapping to an existing copy;
5. installs the translation in the faulting processor's private Pmap and
   sets its bit in the Cmap entry's reference mask.

The handler returns the absolute simulated time at which it completes; the
faulting processor resumes and retries its access then.  What else it did
is published to the observers (``repro.core.trace``) only.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..machine.machine import Machine
from ..machine.memory import Frame, OutOfFramesError
from ..machine.pmap import PmapEntry, Rights
from .cmap import Cmap, CmapEntry, Directive
from .cpage import CoherencyError, Cpage, CpageState
from ..policy.base import Action, FaultContext, ReplicationPolicy
from .shootdown import ShootdownMechanism
from .trace import Observers


# Enum members read on every fault, bound once: a member load through
# the Enum class costs ~13 module-global loads (DESIGN.md section 5)
_READ, _WRITE = Rights.READ, Rights.WRITE
_EMPTY, _PRESENT1, _PRESENT_PLUS, _MODIFIED = CpageState
_CACHE = Action.CACHE
_INVALIDATE, _RESTRICT = Directive.INVALIDATE, Directive.RESTRICT


class ProtectionError(RuntimeError):
    """An access exceeded the rights the virtual memory system granted."""


class CoherentFaultHandler:
    """Implements the data-coherency protocol of Figure 4."""

    def __init__(
        self,
        machine: Machine,
        shootdown: ShootdownMechanism,
        policy: ReplicationPolicy,
        cmaps: dict[int, Cmap],
        observers: Optional[Observers] = None,
    ) -> None:
        self.machine = machine
        self.shootdown = shootdown
        self.policy = policy
        #: told of every fault and block transfer (repro.core.trace)
        self.observers = observers if observers is not None else Observers()
        self.cmaps = cmaps  #: by address space
        #: the VM layer's ``resolve_fault(aspace_id, vpage) -> CmapEntry``
        #: for a fault with no Cmap entry (section 3.3); the kernel's
        self.resolve: Optional[Callable[[int, int], CmapEntry]] = None
        self.fault_count = 0
        #: the policy's action in the observed fault in progress, if any
        self.decision: Optional[Action] = None
        # a property of a property; MachineParams is frozen
        self._page_copy_time = machine.params.page_copy_time

    # -- entry point -----------------------------------------------------------

    def handle(
        self, proc: int, aspace_id: int, vpage: int, write: bool, now: int
    ) -> int:
        """``Kernel.fault``: handle a fault from ``proc`` and return the
        completion time (ns).  A page with no Cmap entry is first bound by
        the virtual memory layer (``resolve``)."""
        cmap = self.cmaps.get(aspace_id)
        if cmap is None or (entry := cmap.entries.get(vpage)) is None:
            if self.resolve is None:
                raise CoherencyError(f"no Cmap entry for aspace {aspace_id} "
                                     f"vpage {vpage} and no VM layer")
            # resolve first: a wild reference must leave no Cmap behind
            entry = self.resolve(aspace_id, vpage)
            cmap = self.cmaps[aspace_id]
        # Rights are the ints 0 < 1 < 3: compared, never and-ed (an
        # IntFlag operator costs a microsecond)
        if entry.vm_rights < (3 if write else 1):
            raise ProtectionError(
                f"cpu{proc} {'write' if write else 'read'} to vpage {vpage} "
                f"of aspace {aspace_id} exceeds rights "
                f"{entry.vm_rights.name}"
            )
        cpage = entry.cpage
        stats = cpage.stats
        observers = self.observers
        self.fault_count += 1
        stats.faults += 1
        if write:
            stats.write_faults += 1
        else:
            stats.read_faults += 1

        # serialize the directory critical section for this Cpage.  The
        # lock scope is small (section 2.2): frame allocation and mapping
        # are per-processor and run in parallel, and the block transfer
        # happens outside the lock -- what serializes concurrent
        # replication of the same page is the source memory bus, the
        # "serialization in hardware" section 5.1 observes on pivot pages.
        p = self.machine.params
        wait = cpage.handler_busy_until - now
        if wait < 0:
            wait = 0
        start = now + wait
        stats.handler_wait_ns += wait
        cpage.handler_busy_until = start + p.t_cpage_lock

        fixed = (
            p.fault_fixed_local
            if cpage.home_module == proc
            else p.fault_fixed_remote
        )
        local = self.machine.ipts[proc].find_local_copy(cpage.index)
        if not observers:
            t, _action = (self._handle_write if write else self._handle_read)(
                proc, cmap, entry, cpage, local, start + fixed, now, None)
            stats.handler_busy_ns += t - start
            return t
        eid = observers.new_eid() if observers.tracing else None
        state_before = cpage.state  # taken only for an observer
        frozen_before = cpage.frozen
        last_inval_before = cpage.last_invalidation
        self.decision = None
        t, action = now, None
        try:
            t, action = (self._handle_write if write else self._handle_read)(
                proc, cmap, entry, cpage, local, start + fixed, now, eid
            )
            stats.handler_busy_ns += t - start
        finally:
            # also when the handler raised (out of frames): the fault was
            # taken, and is published with no action
            decision = self.decision
            if decision is not None:
                # _value_, not the .value property: that is two more calls
                decision = (self.policy.name, decision._value_)
            for observer in observers:
                observer.fault(
                    now, cpage, proc, write, eid, action, t, wait, fixed,
                    state_before, frozen_before, last_inval_before,
                    decision)
        return t

    # -- read faults -------------------------------------------------------------

    def _handle_read(
        self,
        proc: int,
        cmap: Cmap,
        entry: CmapEntry,
        cpage: Cpage,
        local: Frame | None,
        t: int,
        now: int,
        cause: int | None = None,
    ) -> tuple[int, str]:
        if local is not None:
            self._install(cmap, entry, proc, local, _READ)
            cpage.stats.local_mappings += 1
            return t, "map_local"
        if cpage.state is _EMPTY:
            frame, at_home = self._first_touch(proc, cpage)
            cpage.recompute_state()
            self._install(cmap, entry, proc, frame, _READ)
            if at_home:
                cpage.stats.remote_mappings += 1
            return t, "fill"

        # a FaultContext without the namedtuple's Python __new__ frame
        action = self.policy.decide(
            tuple.__new__(FaultContext, (cpage, proc, now, False)))
        self.decision = action
        if action is _CACHE:
            new_frame = self.machine.ipts[proc].allocate_for(cpage.index)
            if new_frame is not None:
                if cpage.state is _MODIFIED:
                    # restrict the write mapping(s) to read-only first
                    t += self.shootdown.shoot_cpage(
                        cpage, _RESTRICT, proc, t,
                        rights=_READ, cause=cause,
                    )
                    cpage.has_write_mapping = False
                    cpage.recompute_state()
                t = self._copy_page(cpage, new_frame, t, cause)
                cpage.add_frame(new_frame)
                cpage.recompute_state()
                self._install(cmap, entry, proc, new_frame, _READ)
                cpage.stats.replications += 1
                return t, "replicate"
            # fall through to a remote mapping when local memory is full
        rights = entry.vm_rights if cpage.frozen else _READ
        self._install(cmap, entry, proc, cpage.any_frame(), rights)
        cpage.stats.remote_mappings += 1
        if rights == 3:
            cpage.has_write_mapping = True
            cpage.recompute_state()
        return t, "remote_map"

    # -- write faults ---------------------------------------------------------------

    def _handle_write(
        self,
        proc: int,
        cmap: Cmap,
        entry: CmapEntry,
        cpage: Cpage,
        local: Frame | None,
        t: int,
        now: int,
        cause: int | None = None,
    ) -> tuple[int, str]:
        if cpage.state is _EMPTY:
            frame, _at_home = self._first_touch(proc, cpage)
            cpage.has_write_mapping = True
            cpage.recompute_state()
            self._install(cmap, entry, proc, frame, _WRITE)
            return t, "fill"

        if local is not None:
            was_replicated = cpage.state is _PRESENT_PLUS
            if was_replicated:
                # invalidate translations to the other replicas, free them
                others = set(cpage.frames)
                others.discard(proc)
                t = self._collapse(cpage, others, proc, t, cause)
            # single copy is local: upgrade needs neither invalidation nor
            # reclamation (the reason present1 exists, section 3.2)
            cpage.has_write_mapping = True
            cpage.recompute_state()
            self._install(cmap, entry, proc, local, _WRITE)
            cpage.stats.upgrades += 1
            return t, ("collapse" if was_replicated else "upgrade")

        action = self.policy.decide(
            tuple.__new__(FaultContext, (cpage, proc, now, True)))
        self.decision = action
        if action is _CACHE:
            new_frame = self.machine.ipts[proc].allocate_for(cpage.index)
            if new_frame is not None:
                t = self._copy_page(cpage, new_frame, t, cause)
                t = self._collapse(cpage, set(cpage.frames), proc, t, cause)
                cpage.add_frame(new_frame)
                cpage.has_write_mapping = True
                cpage.recompute_state()
                self._install(cmap, entry, proc, new_frame, _WRITE)
                cpage.stats.migrations += 1
                return t, "migrate"
            # local memory full: degrade to a remote write mapping
        # remote write mapping: reduce to a single copy first if needed
        if cpage.state is _PRESENT_PLUS:
            others = set(cpage.frames)
            others.discard(cpage.any_frame().module_index)
            t = self._collapse(cpage, others, proc, t, cause)
        target = cpage.sole_frame()
        cpage.has_write_mapping = True
        cpage.recompute_state()
        self._install(cmap, entry, proc, target, _WRITE)
        cpage.stats.remote_mappings += 1
        return t, "remote_map"

    # -- helpers ----------------------------------------------------------------------

    def _collapse(
        self, cpage: Cpage, modules: set[int], proc: int, t: int,
        cause: int | None = None,
    ) -> int:
        """Invalidate translations to (and free) the copies on ``modules``.

        Records the invalidation timestamp the replication policy keys on.
        """
        if not modules:
            return t
        t += self.shootdown.shoot_cpage(
            cpage, _INVALIDATE, proc, t, modules=modules,
            cause=cause,
        )
        ipts = self.machine.ipts
        page_free = self.machine.params.page_free
        for module in sorted(modules):
            ipts[module].release(cpage.drop_frame(module))
            t += page_free
        cpage.has_write_mapping = False
        cpage.last_invalidation = t
        self.policy.note_invalidation(cpage, t)
        return t

    def _copy_page(self, cpage: Cpage, dst: Frame, t: int,
                   cause: int | None = None) -> int:
        """Block-transfer the page into ``dst`` from the *least busy*
        existing copy (lowest module on a tie).  Source diversification
        is what lets concurrent replication of a hot page (the Gauss
        pivot row) fan out in a tree instead of serializing on one
        source module; the residual bus queueing is attributed to the
        page as handler contention."""
        machine = self.machine
        modules = machine.modules
        src = None
        for frame in cpage.frames.values():
            busy = modules[frame.module_index].bus.busy_until
            if src is None or busy < least or (
                busy == least and frame.module_index < src.module_index
            ):
                src, least = frame, busy
        end = machine.xfer.transfer_page(src, dst, t)
        queued = end - t - self._page_copy_time
        if queued > 0:
            cpage.stats.handler_wait_ns += queued
        for observer in self.observers:
            observer.transfer(t, cpage, src.module_index, dst.module_index,
                              end, cause)
        return end

    def _first_touch(self, proc: int, cpage: Cpage) -> tuple[Frame, bool]:
        """The first copy of an empty Cpage, holding its initial data and
        entered in the directory: on the faulting node, or -- that module
        being full -- at the Cpage's home.  Returns the frame and whether
        it is the home one.  A ``placement_module`` on the Cpage overrides
        both nodes (static-placement baselines).
        """
        placed = cpage.placement_module
        ipts = self.machine.ipts
        frame = ipts[proc if placed is None else placed].allocate_for(
            cpage.index)
        at_home = frame is None
        if at_home:
            frame = ipts[cpage.home_module if placed is None
                         else placed].allocate_for(cpage.index)
            if frame is None:
                raise OutOfFramesError(
                    f"no frames for initial fill of {cpage!r}")
        if cpage.backing is not None:
            frame.data[: len(cpage.backing)] = cpage.backing
        cpage.add_frame(frame)
        return frame, at_home

    def _install(
        self,
        cmap: Cmap,
        entry: CmapEntry,
        proc: int,
        frame: Frame,
        rights: Rights,
    ) -> None:
        """Enter ``frame`` in ``proc``'s private Pmap with ``rights``
        capped by what the VM layer granted, and set its reference bit."""
        # rights & vm_rights: the values nest (0 in 1 in 3)
        if entry.vm_rights < rights:
            rights = entry.vm_rights
        if rights == 0:
            raise ProtectionError(
                f"installing empty rights for vpage {entry.vpage}"
            )
        vpage = entry.vpage
        aspace_id = cmap.aspace_id
        pmap = cmap._pmaps.get(proc)
        if pmap is None:
            pmap = cmap.pmap_for(proc, create=True)
        mmu = self.machine.mmus[proc]
        if aspace_id not in mmu._pmaps:
            mmu.attach_pmap(pmap)
        # replacing the Pmap entry orphans any cached ATC descriptor
        # (ATC.flush_page, Pmap.enter and CmapEntry.set_ref, in place)
        atc = mmu.atc
        if atc._entries.pop((aspace_id, vpage), None) is not None:
            atc.flushes += 1
        pmap._entries[vpage] = PmapEntry(
            vpage, frame, rights, frame.module_index != proc,
            False, False, entry.cpage.index,
        )
        entry.ref_mask |= 1 << proc
