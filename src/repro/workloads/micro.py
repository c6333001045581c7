"""Section 4 microbenchmarks: the cost of basic coherent-memory operations.

The paper times, on the 16-processor Butterfly Plus, a page-aligned
block transfer, a read miss replicating a non-modified page (cheaper
with local kernel data than with remote), one replicating a modified
page, a write miss collapsing a present+ page, and the initiator's
delay per additional interrupted processor (~7 us interrupt + ~10 us
page free, against 55 us for Mach's shootdown on an Encore Multimax).
The published figures are ``repro.bench.targets.SEC4_PAPER``.

These functions drive the live fault handler on purpose-built Cpage
states and report the initiator-observed latency of each operation.
They are the regression tests for the cost model and what
``repro bench --filter sec4_micro`` (and ``repro micro``) measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..policy.fixed import AlwaysReplicatePolicy
from ..kernel.kernel import Kernel
from ..machine.params import MachineParams
from ..machine.pmap import Rights


def _micro_kernel(n_processors: int = 16, **overrides) -> Kernel:
    params = MachineParams(n_processors=n_processors).scaled(**overrides)
    return Kernel(
        params=params,
        policy=AlwaysReplicatePolicy(),
        defrost_enabled=False,
    )


@dataclass
class MicroSetup:
    """A kernel plus one single-page Cpage mapped into one address space."""

    kernel: Kernel
    aspace_id: int
    vpage: int
    cpage: object

    def settle(self, gap_ns: float = 20e6) -> None:
        """Advance simulated time so prior kernel work has drained --
        each measurement then sees an idle machine, like the paper's
        contention-free timings."""
        engine = self.kernel.engine
        engine.run(until=engine.now + gap_ns)

    def fault(self, proc: int, write: bool) -> float:
        """Fault from ``proc`` on an idle machine; returns latency in ns."""
        self.settle()
        now = self.kernel.engine.now
        end = self.kernel.fault(proc, self.aspace_id, self.vpage, write, now)
        return float(end - now)


def _setup(
    home_module: int, n_processors: int = 16, **overrides
) -> MicroSetup:
    """One Cpage whose kernel metadata lives on ``home_module``."""
    kernel = _micro_kernel(n_processors, **overrides)
    cpage = kernel.coherent.cpages.create(
        home_module=home_module, label="micro"
    )
    aspace = kernel.vm.create_address_space()
    kernel.coherent.map_page(aspace.asid, 0, cpage, Rights.WRITE)
    for proc in range(kernel.params.n_processors):
        kernel.coherent.activate(aspace.asid, proc)
    return MicroSetup(kernel, aspace.asid, 0, cpage)


# -- the individual measurements -----------------------------------------------


def measure_page_copy(n_processors: int = 16, **overrides) -> float:
    """Contention-free page-aligned block transfer (paper: 1.11 ms)."""
    kernel = _micro_kernel(n_processors, **overrides)
    src = kernel.machine.modules[0].allocate()
    dst = kernel.machine.modules[1].allocate()
    now = kernel.engine.now
    end = kernel.machine.xfer.transfer_page(src, dst, now)
    return float(end - now)


def measure_read_miss_clean(local_metadata: bool) -> float:
    """Read miss replicating a non-modified page (paper: 1.34--1.38 ms).

    ``local_metadata=True`` is the 1.34 ms case (Cpage metadata on the
    faulting node); False is the 1.38 ms remote-metadata case.
    """
    faulter = 0
    setup = _setup(home_module=faulter if local_metadata else 3)
    setup.fault(1, write=False)  # first touch: present1 on node 1
    return setup.fault(faulter, write=False)  # replicate -> present+


def measure_read_miss_modified(local_metadata: bool) -> float:
    """Read miss replicating a modified page with one writer interrupted
    (paper: 1.38--1.59 ms)."""
    faulter = 0
    setup = _setup(home_module=faulter if local_metadata else 3)
    setup.fault(1, write=True)  # modified, write-mapped on node 1
    return setup.fault(faulter, write=False)  # restrict + replicate


def measure_write_miss_present_plus(
    n_replicas: int = 2, local_metadata: bool = True
) -> float:
    """Write miss collapsing a present+ page (paper: 0.25--0.45 ms with
    one processor interrupted and one page freed).

    The faulting node holds one replica; ``n_replicas - 1`` other nodes
    hold the rest and get interrupted.
    """
    if n_replicas < 2:
        raise ValueError("present+ needs at least two replicas")
    faulter = 0
    setup = _setup(home_module=faulter if local_metadata else 3)
    setup.fault(1, write=False)  # present1 on node 1
    setup.fault(faulter, write=False)  # replica on the faulting node
    for node in range(2, n_replicas):
        setup.fault(node, write=False)
    return setup.fault(faulter, write=True)


def measure_shootdown_increment(max_targets: int = 15) -> list[float]:
    """Initiator cost of a present+ collapse vs number of interrupted
    processors; the per-processor increments should be <= ~17 us
    (7 us interrupt + 10 us page free)."""
    costs = []
    for n_targets in range(1, max_targets + 1):
        latency = measure_write_miss_present_plus(
            n_replicas=n_targets + 1
        )
        costs.append(latency)
    return costs


def measure_upgrade_write() -> float:
    """present1 -> modified upgrade by the holder: needs neither
    invalidation nor reclamation (the cheap case the present1 state
    exists for)."""
    setup = _setup(home_module=1)
    setup.fault(1, write=False)  # present1 on node 1
    return setup.fault(1, write=True)


def measure_remote_map_write() -> float:
    """Remote write mapping instead of migration (the protocol's NUMA
    extension): no copy, no page free."""
    setup = _setup(home_module=0)
    setup.fault(1, write=True)  # modified on node 1
    # force a remote mapping via a never-cache decision
    from ..policy.fixed import NeverCachePolicy

    setup.kernel.coherent.fault_handler.policy = NeverCachePolicy()
    return setup.fault(0, write=True)
