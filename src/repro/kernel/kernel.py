"""The assembled PLATINUM kernel.

Wires the simulated machine to the three memory-management layers
(virtual memory, coherent memory, physical maps), threads, and ports, and
exposes the fault path the processor execution layer calls.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from ..core.coherent_memory import CoherentMemorySystem
from ..core.instrumentation import MemoryReport
from ..policy.base import ReplicationPolicy
from ..machine.machine import Machine
from ..machine.params import MachineParams
from .ports import PortNamespace
from .threads import ThreadManager
from .vm import VirtualMemorySystem


class _Forward(property):
    """An attribute that is another object's bound method, read through
    a C getter (no frame); called on the class, it forwards the call."""

    def __call__(self, owner, *args):
        return self.fget(owner)(*args)


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
        # the VM's address-space table, not the VM: that owns the handler
        self.coherent.fault_handler.resolve = self.vm.aspaces.resolve
        self.threads = ThreadManager(machine, self.coherent)
        self.ports = PortNamespace(machine)

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

    #: ``fault(proc, aspace_id, vpage, write, now) -> int``: the fault
    #: path, :meth:`CoherentFaultHandler.handle` (the VM layer resolves a
    #: composition-cache miss first, section 3.3); one frame per fault
    fault = _Forward(attrgetter("coherent.fault_handler.handle"))

    # -- reporting ---------------------------------------------------------------

    def report(self) -> MemoryReport:
        return self.coherent.report()

    def check_invariants(self) -> None:
        """One full check of the seven coherence invariants; raises
        :class:`~repro.check.invariants.InvariantViolation`."""
        from ..check.invariants import InvariantChecker

        InvariantChecker(self.coherent).check()
