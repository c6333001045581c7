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
from .cmap import Cmap, CmapEntry
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
        self.shootdown = ShootdownMechanism(machine, self.observers)
        self.fault_handler = CoherentFaultHandler(
            machine, self.shootdown, self.policy, self.cmaps, self.observers)
        self.defrost = DefrostDaemon(
            machine, self.shootdown, self.policy, period=defrost_period,
            observers=self.observers,
        )
        if defrost_enabled:
            self.defrost.start()
        #: when True, remote accesses through established mappings are
        #: counted per (Cpage, processor) -- the simulated 'hardware
        #: reference counts' that competitive placement (section 8)
        #: depends on.  PLATINUM itself leaves this off.
        self.reference_counting = False
        #: optional repro.profile.AccessProbe recording per-(Cpage,
        #: processor) word counts for cost attribution; one attribute
        #: load + branch on the access hot path when None
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
        from .cmap import Directive  # local import to avoid cycle noise

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

    # -- reference counting -----------------------------------------------------------

    def note_remote_access(
        self, cpage_index: int, proc: int, n_words: int
    ) -> None:
        """Record remote traffic to a page (reference-count hardware).

        Called once per contiguous batched run, not per word: the whole
        run is a single pair of counter updates.
        """
        cpage = self.cpages.get(cpage_index)
        counts = cpage.remote_counts
        cpage.stats.remote_access_words += n_words
        counts[proc] = counts.get(proc, 0) + n_words

    # -- introspection ----------------------------------------------------------------

    def report(self) -> MemoryReport:
        return build_report(
            self.cpages, self.machine, shootdowns=self.shootdown.shootdowns
        )
