"""The coherent memory system facade.

Owns the Cpage table, the per-address-space Cmaps, the shootdown mechanism,
the fault handler, the replication policy and the defrost daemon -- the
whole middle layer of the PLATINUM memory system (paper section 2).  The
virtual memory layer above maps virtual ranges to Cpages through this
facade; the processor execution layer below delivers faults to it.
"""

from __future__ import annotations

from typing import Optional, Union

from ..machine.machine import Machine
from ..machine.pmap import Rights
from ..telemetry.metrics import MetricsRegistry, ProtocolMetrics
from .cmap import Cmap, CmapEntry, Directive
from .cpage import Cpage, CpageTable
from .defrost import DefrostDaemon
from .fault import CoherentFaultHandler
from .instrumentation import MemoryReport, build_report
from ..policy.base import ReplicationPolicy
from ..policy.fixed import TimestampFreezePolicy
from .shootdown import ShootdownMechanism
from .trace import Observers, ProtocolTracer


class CoherentMemorySystem:
    """PLATINUM's coherent memory layer, assembled."""

    def __init__(
        self,
        machine: Machine,
        policy: Optional[ReplicationPolicy] = None,
        defrost_enabled: bool = True,
        defrost_period: Optional[float] = None,
        trace: bool = False,
        metrics: Union[MetricsRegistry, bool, None] = None,
    ) -> None:
        self.machine = machine
        self.policy = (
            policy
            if policy is not None
            else TimestampFreezePolicy(machine.params.t1_freeze_window)
        )
        #: every observer of protocol actions (repro.core.trace): the
        #: tracer while enabled, the metrics fold while the registry is,
        #: and an invariant checker once installed
        self.observers = Observers()
        self.tracer = ProtocolTracer(enabled=trace, observers=self.observers)
        #: the telemetry metrics registry: an instance is used as-is
        #: (share one across kernels to aggregate), ``True`` makes an
        #: enabled one, ``False``/``None`` a disabled one
        if not isinstance(metrics, MetricsRegistry):
            metrics = MetricsRegistry(enabled=bool(metrics))
        self.metrics = metrics
        # the protocol catalogue is listed (at zero) even while disabled
        fold = ProtocolMetrics(metrics)
        if metrics.enabled:
            self.observers.append(fold)
        self.cpages = CpageTable(machine.params.n_modules)
        self.cmaps: dict[int, Cmap] = {}
        self.shootdown = ShootdownMechanism(
            machine, self.cmaps, self.observers)
        self.fault_handler = CoherentFaultHandler(
            machine, self.shootdown, self.policy, self.cmaps, self.observers)
        self.defrost = DefrostDaemon(
            machine, self.shootdown, self.policy, period=defrost_period,
            observers=self.observers,
        )
        if defrost_enabled:
            self.defrost.start()
        #: the other daemons built on this kernel (section 8 migration,
        #: samplers): the engine's queue holds their ticks weakly
        self.daemons: list = []
        #: the one access hook, ``note(cpage_index, proc, write, remote,
        #: words, queue_delay)`` per access run through an established
        #: mapping: a repro.profile.AccessProbe (cost attribution) or the
        #: section 8 MigrationDaemon (its reference counts).  One
        #: attribute load + branch on the access hot path when None
        self.access_probe = None

    # -- Cmap / mapping management (called by the VM layer) --------------------

    def cmap_for(self, aspace_id: int, create: bool = False) -> Optional[Cmap]:
        cmap = self.cmaps.get(aspace_id)
        if cmap is None and create:
            cmap = Cmap(aspace_id, self.machine.params.n_processors)
            self.cmaps[aspace_id] = cmap
        return cmap

    def map_page(
        self, aspace_id: int, vpage: int, cpage: Cpage, rights: Rights
    ) -> CmapEntry:
        """Record that ``vpage`` of the address space maps ``cpage``."""
        cmap = self.cmap_for(aspace_id, create=True)
        assert cmap is not None
        return cmap.enter(vpage, cpage, rights)

    def unmap_page(self, aspace_id: int, vpage: int, initiator: int) -> None:
        """Remove a mapping, shooting down any hardware translations."""
        cmap = self.cmaps.get(aspace_id)
        if cmap is None:
            return
        self.shootdown.shoot_vpages(
            cmap, [vpage], Directive.INVALIDATE, initiator,
            self.machine.engine.now,
        )
        cmap.remove(vpage)

    # -- activation --------------------------------------------------------------

    def activate(self, aspace_id: int, proc: int) -> int:
        """Mark the address space active on ``proc``; apply queued Cmap
        messages.  Returns the kernel time spent applying them."""
        cmap = self.cmap_for(aspace_id, create=True)
        assert cmap is not None
        _, cost = self.shootdown.apply_pending(cmap, proc)
        cmap.activate(proc)
        pmap = cmap.pmap_for(proc, create=True)
        mmu = self.machine.mmus[proc]
        if mmu.pmap_for(aspace_id) is None:
            mmu.attach_pmap(pmap)
        return cost

    def deactivate(self, aspace_id: int, proc: int) -> None:
        cmap = self.cmaps.get(aspace_id)
        if cmap is not None:
            cmap.deactivate(proc)

    def claim_access_probe(self, probe) -> None:
        """Install ``probe`` as the access hook; a second claimant is
        refused rather than silently displacing the first."""
        if self.access_probe is not None:
            raise ValueError(f"the access hook is taken by the "
                             f"{type(self.access_probe).__name__}")
        self.access_probe = probe

    # -- introspection ----------------------------------------------------------------

    def report(self) -> MemoryReport:
        return build_report(
            self.cpages, self.machine, shootdowns=self.shootdown.shootdowns
        )
