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
faulting processor resumes and retries its access then.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..machine.machine import Machine
from ..machine.memory import Frame, OutOfFramesError
from ..machine.pmap import Rights
from ..telemetry.metrics import MetricsRegistry
from .cmap import Cmap, CmapEntry, Directive
from .cpage import CoherencyError, Cpage, CpageState
from ..policy.base import Action, FaultContext, ReplicationPolicy
from .shootdown import ShootdownMechanism
from .trace import EventKind, ProtocolTracer


class ProtectionError(RuntimeError):
    """An access exceeded the rights the virtual memory system granted."""


@dataclass
class FaultResult:
    """Outcome of one coherent-memory fault."""

    #: absolute simulated time (ns) when the handler finished
    completion: int
    #: what the handler did: one of 'fill', 'map_local', 'upgrade',
    #: 'replicate', 'migrate', 'remote_map', 'collapse'
    action: str
    #: time spent queued on the per-Cpage handler lock
    contention_wait: int


class CoherentFaultHandler:
    """Implements the data-coherency protocol of Figure 4."""

    def __init__(
        self,
        machine: Machine,
        shootdown: ShootdownMechanism,
        policy: ReplicationPolicy,
        tracer: ProtocolTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.machine = machine
        self.shootdown = shootdown
        self.policy = policy
        self.tracer = tracer if tracer is not None else ProtocolTracer()
        self.fault_count = 0
        #: called after every completed fault, with the directory in a
        #: consistent state (the repro.check invariant checker hooks here)
        self.post_action_hooks: list[Callable[[], None]] = []
        # instruments are pre-bound so the disabled path costs one branch
        m = metrics if metrics is not None else MetricsRegistry()
        self.metrics = m
        self._m_faults = m.counter(
            "faults_total", "coherent memory faults taken",
            labels=("processor", "kind"))
        self._m_actions = m.counter(
            "fault_actions_total", "completed fault-handler actions",
            labels=("action",))
        self._m_handler_ns = m.histogram(
            "fault_handler_ns",
            "fault-handler latency including lock wait", unit="ns")
        self._m_wait_ns = m.histogram(
            "fault_wait_ns", "per-cpage handler-lock wait", unit="ns")
        self._m_freezes = m.counter(
            "freezes_total", "cpages frozen by the replication policy",
            labels=("cpage",))
        self._m_thaws = m.counter(
            "thaws_total", "cpages thawed", labels=("via",))
        self._m_transfers = m.counter(
            "transfers_total", "whole-page block transfers",
            labels=("src", "dst"))
        self._m_decisions = m.counter(
            "policy_decisions_total",
            "replication-policy decisions on policy-consulted misses",
            labels=("policy", "action"))

    # -- entry point -----------------------------------------------------------

    def handle(
        self, proc: int, cmap: Cmap, vpage: int, write: bool, now: int
    ) -> FaultResult:
        entry = cmap.lookup(vpage)
        if entry is None:
            raise CoherencyError(
                f"no Cmap entry for aspace {cmap.aspace_id} vpage {vpage}; "
                "the virtual memory layer should have resolved this fault"
            )
        if not entry.vm_rights.allows(write):
            raise ProtectionError(
                f"cpu{proc} {'write' if write else 'read'} to vpage {vpage} "
                f"of aspace {cmap.aspace_id} exceeds rights "
                f"{entry.vm_rights.name}"
            )
        cpage = entry.cpage
        self.fault_count += 1
        cpage.stats.faults += 1
        if write:
            cpage.stats.write_faults += 1
        else:
            cpage.stats.read_faults += 1
        if self.metrics.enabled:
            self._m_faults.labels(
                proc, "write" if write else "read"
            ).inc()

        # serialize the directory critical section for this Cpage.  The
        # lock scope is small (section 2.2): frame allocation and mapping
        # are per-processor and run in parallel, and the block transfer
        # happens outside the lock -- what serializes concurrent
        # replication of the same page is the source memory bus, the
        # "serialization in hardware" section 5.1 observes on pivot pages.
        p = self.machine.params
        eid = self.tracer.reserve()
        wait = max(0, cpage.handler_busy_until - now)
        t = now + wait
        cpage.stats.handler_wait_ns += wait
        start = t
        cpage.handler_busy_until = t + p.t_cpage_lock

        fixed = (
            p.fault_fixed_local
            if cpage.home_module == proc
            else p.fault_fixed_remote
        )
        t += fixed

        local = self.machine.ipt_of(proc).find_local_copy(cpage.index)
        state_before = cpage.state
        frozen_before = cpage.frozen
        last_inval_before = cpage.last_invalidation
        if write:
            t, action = self._handle_write(
                proc, cmap, entry, cpage, local, t, now, cause=eid
            )
        else:
            t, action = self._handle_read(
                proc, cmap, entry, cpage, local, t, now, cause=eid
            )

        cpage.stats.handler_busy_ns += t - start
        if self.metrics.enabled:
            self._m_actions.labels(action).inc()
            self._m_handler_ns.observe(t - now)
            self._m_wait_ns.observe(wait)
            if cpage.frozen and not frozen_before:
                self._m_freezes.labels(cpage.index).inc()
            elif frozen_before and not cpage.frozen:
                self._m_thaws.labels("fault").inc()
        if self.tracer.enabled:
            self.tracer.record(
                now, EventKind.FAULT, cpage.index, proc, eid=eid,
                write=write, action=action,
                dur=t - now, wait=wait, fixed=fixed,
                last_inval=last_inval_before,
                **{"from": state_before.value, "to": cpage.state.value},
            )
            if cpage.frozen and not frozen_before:
                self.tracer.record(
                    now, EventKind.FREEZE, cpage.index, proc, cause=eid,
                    last_inval=last_inval_before,
                )
            elif frozen_before and not cpage.frozen:
                self.tracer.record(
                    now, EventKind.THAW, cpage.index, proc, cause=eid,
                    via="fault"
                )
        for hook in self.post_action_hooks:
            hook()
        return FaultResult(completion=t, action=action, contention_wait=wait)

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
            self._install(cmap, entry, proc, local, Rights.READ)
            cpage.stats.local_mappings += 1
            return t, "map_local"
        if cpage.state is CpageState.EMPTY:
            frame = self._allocate_filled(proc, cpage)
            if frame is not None:
                cpage.add_frame(frame)
                cpage.recompute_state()
                self._install(cmap, entry, proc, frame, Rights.READ)
                return t, "fill"
            # local module full: fill a frame at the Cpage's home instead
            frame = self._allocate_filled(cpage.home_module, cpage)
            if frame is None:
                raise OutOfFramesError(
                    f"no frames for initial fill of {cpage!r}"
                )
            cpage.add_frame(frame)
            cpage.recompute_state()
            self._install(cmap, entry, proc, frame, Rights.READ)
            cpage.stats.remote_mappings += 1
            return t, "fill"

        ctx = FaultContext(cpage=cpage, processor=proc, now=now, write=False)
        action = self.policy.decide(ctx)
        if self.metrics.enabled:
            self._m_decisions.labels(self.policy.name, action.value).inc()
        if action is Action.CACHE:
            new_frame = self._try_allocate(proc, cpage)
            if new_frame is not None:
                if cpage.state is CpageState.MODIFIED:
                    # restrict the write mapping(s) to read-only first
                    res = self.shootdown.shoot_cpage(
                        cpage, Directive.RESTRICT, proc, t,
                        rights=Rights.READ, cause=cause,
                    )
                    t += res.initiator_cost
                    cpage.has_write_mapping = False
                    cpage.recompute_state()
                t = self._copy_page(cpage, new_frame, t, cause=cause)
                cpage.add_frame(new_frame)
                cpage.recompute_state()
                self._install(cmap, entry, proc, new_frame, Rights.READ)
                cpage.stats.replications += 1
                return t, "replicate"
            # fall through to a remote mapping when local memory is full
        target = cpage.any_frame()
        rights = entry.vm_rights if cpage.frozen else Rights.READ
        self._install(cmap, entry, proc, target, rights)
        cpage.stats.remote_mappings += 1
        if rights.allows(True):
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
        if cpage.state is CpageState.EMPTY:
            frame = self._allocate_filled(proc, cpage)
            if frame is None:
                frame = self._allocate_filled(cpage.home_module, cpage)
            if frame is None:
                raise OutOfFramesError(
                    f"no frames for initial fill of {cpage!r}"
                )
            cpage.add_frame(frame)
            cpage.has_write_mapping = True
            cpage.recompute_state()
            self._install(cmap, entry, proc, frame, Rights.WRITE)
            return t, "fill"

        if local is not None:
            was_replicated = cpage.state is CpageState.PRESENT_PLUS
            if was_replicated:
                # invalidate translations to the other replicas, free them
                others = set(cpage.frames) - {proc}
                t = self._collapse(cpage, others, proc, t, cause=cause)
            # single copy is local: upgrade needs neither invalidation nor
            # reclamation (the reason present1 exists, section 3.2)
            cpage.has_write_mapping = True
            cpage.recompute_state()
            self._install(cmap, entry, proc, local, Rights.WRITE)
            cpage.stats.upgrades += 1
            return t, ("collapse" if was_replicated else "upgrade")

        ctx = FaultContext(cpage=cpage, processor=proc, now=now, write=True)
        action = self.policy.decide(ctx)
        if self.metrics.enabled:
            self._m_decisions.labels(self.policy.name, action.value).inc()
        if action is Action.CACHE:
            new_frame = self._try_allocate(proc, cpage)
            if new_frame is not None:
                t = self._copy_page(cpage, new_frame, t, cause=cause)
                old_modules = set(cpage.frames)
                t = self._collapse(cpage, old_modules, proc, t, cause=cause)
                cpage.add_frame(new_frame)
                cpage.has_write_mapping = True
                cpage.recompute_state()
                self._install(cmap, entry, proc, new_frame, Rights.WRITE)
                cpage.stats.migrations += 1
                return t, "migrate"
            # local memory full: degrade to a remote write mapping
        # remote write mapping: reduce to a single copy first if needed
        if cpage.state is CpageState.PRESENT_PLUS:
            keep = cpage.any_frame()
            others = set(cpage.frames) - {keep.module_index}
            t = self._collapse(cpage, others, proc, t, cause=cause)
        target = cpage.sole_frame()
        cpage.has_write_mapping = True
        cpage.recompute_state()
        self._install(cmap, entry, proc, target, Rights.WRITE)
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
        res = self.shootdown.shoot_cpage(
            cpage, Directive.INVALIDATE, proc, t, modules=modules,
            cause=cause,
        )
        t += res.initiator_cost
        for module in sorted(modules):
            frame = cpage.drop_frame(module)
            self.machine.ipt_of(module).release(frame)
            t += self.machine.params.page_free
        cpage.has_write_mapping = False
        cpage.last_invalidation = t
        self.policy.note_invalidation(cpage, t)
        return t

    def _copy_page(self, cpage: Cpage, dst: Frame, t: int,
                   cause: int | None = None) -> int:
        """Block-transfer the page into ``dst`` from the *least busy*
        existing copy.  Source diversification is what lets concurrent
        replication of a hot page (the Gauss pivot row) fan out in a tree
        instead of serializing on one source module; the residual bus
        queueing is attributed to the page as handler contention."""
        p = self.machine.params
        src = min(
            cpage.frames.values(),
            key=lambda f: (
                self.machine.modules[f.module_index].bus.busy_until,
                f.module_index,
            ),
        )
        end = self.machine.xfer.transfer_page(src, dst, t)
        cpage.stats.handler_wait_ns += max(0, end - t - p.page_copy_time)
        if self.metrics.enabled:
            self._m_transfers.labels(
                src.module_index, dst.module_index
            ).inc()
        if self.tracer.enabled:
            self.tracer.record(
                t, EventKind.TRANSFER, cpage.index, None, cause=cause,
                src=src.module_index, dst=dst.module_index, dur=end - t,
            )
        return end

    def _try_allocate(self, proc: int, cpage: Cpage) -> Frame | None:
        try:
            return self.machine.ipt_of(proc).allocate_for(cpage.index)
        except OutOfFramesError:
            return None

    def _allocate_filled(self, node: int, cpage: Cpage) -> Frame | None:
        """First-touch allocation of an empty Cpage, with initial data.

        A ``placement_module`` on the Cpage overrides the faulting node
        (static-placement baselines).
        """
        if cpage.placement_module is not None:
            node = cpage.placement_module
        frame = self._try_allocate(node, cpage)
        if frame is None:
            return None
        if cpage.backing is not None:
            frame.data[: len(cpage.backing)] = cpage.backing
        return frame

    def _install(
        self,
        cmap: Cmap,
        entry: CmapEntry,
        proc: int,
        frame: Frame,
        rights: Rights,
    ) -> None:
        rights = rights & entry.vm_rights
        if rights == Rights.NONE:
            raise ProtectionError(
                f"installing empty rights for vpage {entry.vpage}"
            )
        pmap = cmap.pmap_for(proc, create=True)
        mmu = self.machine.mmus[proc]
        if mmu.pmap_for(cmap.aspace_id) is None:
            mmu.attach_pmap(pmap)
        # replacing the Pmap entry orphans any cached ATC descriptor
        mmu.atc.flush_page(cmap.aspace_id, entry.vpage)
        remote = frame.module_index != proc
        pmap.enter(entry.vpage, frame, rights, remote=remote,
                   cpage_index=entry.cpage.index)
        entry.set_ref(proc)
