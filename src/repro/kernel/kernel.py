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
        Kernel(..., metrics=True), or pass a registry to share)."""
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

    # -- reporting ---------------------------------------------------------------

    def report(self) -> MemoryReport:
        return self.coherent.report()

    def check_invariants(self) -> None:
        """One full check of the seven coherence invariants; raises
        :class:`~repro.check.invariants.InvariantViolation`."""
        from ..check.invariants import InvariantChecker

        InvariantChecker(self.coherent).check()
