"""The assembled PLATINUM kernel.

Wires the simulated machine to the three memory-management layers
(virtual memory, coherent memory, physical maps), threads, and ports, and
exposes the fault path the processor execution layer calls.
"""

from __future__ import annotations

from typing import Optional

from ..core.coherent_memory import CoherentMemorySystem
from ..core.fault import FaultResult
from ..core.instrumentation import MemoryReport
from ..policy.base import ReplicationPolicy
from ..machine.machine import Machine
from ..machine.params import MachineParams
from ..sim.resource import FifoResource
from .ports import PortNamespace
from .threads import ThreadManager
from .vm import VirtualMemorySystem


class Kernel:
    """A booted PLATINUM instance on a simulated machine."""

    def __init__(
        self,
        machine: Optional[Machine] = None,
        params: Optional[MachineParams] = None,
        policy: Optional[ReplicationPolicy] = None,
        defrost_enabled: bool = True,
        defrost_period: Optional[float] = None,
        trace: bool = False,
        metrics=None,
    ) -> None:
        if machine is None:
            machine = Machine(params if params is not None else
                              MachineParams())
        elif params is not None and params is not machine.params:
            raise ValueError("give either a machine or params, not both")
        self.machine = machine
        self.coherent = CoherentMemorySystem(
            machine,
            policy=policy,
            defrost_enabled=defrost_enabled,
            defrost_period=defrost_period,
            trace=trace,
            metrics=metrics,
        )
        self.vm = VirtualMemorySystem(self.coherent)
        self.threads = ThreadManager(machine, self.coherent)
        self.ports = PortNamespace(machine)
        #: per-processor resources that serialize the threads sharing a
        #: processor, filled on first use by the thread executor
        self.cpu_resources: dict[int, FifoResource] = {}
        self.kernel_aspace = None
        self.kernel_text = None
        self.kernel_data = None

    def __repr__(self) -> str:
        return f"<Kernel on {self.machine!r} policy={self.policy.name}>"

    @property
    def engine(self):
        return self.machine.engine

    @property
    def params(self) -> MachineParams:
        return self.machine.params

    @property
    def policy(self) -> ReplicationPolicy:
        return self.coherent.policy

    @property
    def tracer(self):
        """The protocol tracer (enable with Kernel(..., trace=True))."""
        return self.coherent.tracer

    @property
    def metrics(self):
        """The telemetry metrics registry (enable with
        Kernel(..., metrics=MetricsRegistry(enabled=True)) or
        make_kernel(metrics=True))."""
        return self.coherent.metrics

    # -- the fault path ---------------------------------------------------------

    def fault(
        self, proc: int, aspace_id: int, vpage: int, write: bool, now: int
    ) -> FaultResult:
        """Handle a translation/protection fault from ``proc``.

        If the coherent layer has no Cmap entry (composition-cache miss),
        the fault is first passed to the virtual memory fault handler,
        which resolves the binding; then the coherent page fault handler
        runs (paper section 3.3).
        """
        coherent = self.coherent
        cmap = coherent.cmaps.get(aspace_id)
        if cmap is None or vpage not in cmap.entries:
            # resolve first: a wild reference must leave no Cmap behind
            self.vm.resolve_fault(aspace_id, vpage)
            cmap = coherent.cmaps[aspace_id]
        return coherent.fault_handler.handle(proc, cmap, vpage, write, now)

    # -- kernel memory regions (paper section 2.2) --------------------------------

    def boot_kernel_memory(
        self, text_pages: int = 4, data_pages: int = 2
    ) -> None:
        """Set up the kernel's own memory regions as section 2.2
        describes: "The kernel replicates its code and read-only data.
        Since writable data in physical memory can only have one copy,
        each writable page in kernel physical memory is mapped for
        remote access by all but its local processor."

        Kernel text is replicated to every module at boot; writable
        kernel data pages get a single copy each (distributed round-
        robin) and are born *frozen*, so every other processor's
        mapping is a full-rights remote mapping -- exactly the frozen-
        page mechanism reused for the kernel's own data.
        """
        if self.kernel_aspace is not None:
            raise RuntimeError("kernel memory already booted")
        from ..machine.pmap import Rights

        n = self.params.n_processors
        aspace = self.vm.create_address_space()
        self.kernel_aspace = aspace
        self.kernel_text = self.vm.create_object(
            text_pages, label="ktext"
        )
        self.vm.bind(aspace, 0, self.kernel_text, rights=Rights.READ)
        self.kernel_data = self.vm.create_object(
            data_pages, label="kdata"
        )
        self.vm.bind(
            aspace, text_pages, self.kernel_data, rights=Rights.WRITE
        )
        for proc in range(n):
            self.coherent.activate(aspace.asid, proc)
        now = self.engine.now
        # replicate the text everywhere (boot-time, not charged to anyone)
        for vpage in range(text_pages):
            for proc in range(n):
                self.fault(proc, aspace.asid, vpage, False, now)
        # place each writable kernel page and freeze it so all further
        # mappings are full-rights remote mappings
        for i in range(data_pages):
            vpage = text_pages + i
            home = i % n
            self.fault(home, aspace.asid, vpage, True, now)
            cpage = self.kernel_data.cpages[i]
            self.policy.freeze(cpage, now)
            cpage.thaw_exempt = True  # the daemon must not thaw these
            for proc in range(n):
                if proc != home:
                    self.fault(proc, aspace.asid, vpage, True, now)

    # -- reporting ---------------------------------------------------------------

    def report(self) -> MemoryReport:
        return self.coherent.report()

    def check_invariants(self) -> None:
        self.coherent.check_invariants()
