"""Interprocessor interrupts, and the per-processor row of the op path.

The shootdown protocol (paper section 3.1) synchronizes initiator and
targets through interprocessor interrupts; targets apply queued Cmap
messages in their interrupt handlers.

In the discrete-event model, kernel state changes made by a shootdown are
applied immediately (events are serialized, so this is race-free), while the
*time* a target spends taking the interrupt is charged to that processor as
a pending penalty it pays before its next operation completes.  This
matches how the paper reports costs: a per-target incremental delay on the
initiator (~7 us each) and a small disruption on each target.

:class:`ProcessorState` is one processor's row: all the thread
executor's op path knows about it, read through
``state[thread.processor]`` at each op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .params import MachineParams


@dataclass(slots=True)
class ProcessorState:
    """One processor's row: ``busy_until`` serializes the threads that
    share it, ``pending_penalty`` is interrupt time it pays before its
    next op completes, and ``dests`` holds, per memory module, the
    constants the executor costs a reference with (filled on first use
    by ``ThreadProcess._destination``)."""

    busy_until: int = 0
    pending_penalty: int = 0
    ipis_received: int = 0
    ipis_sent: int = 0
    dests: list = field(default_factory=list)


class InterruptController:
    """Tracks IPI traffic and per-processor pending time penalties in
    ``state``, the machine's one row per processor."""

    def __init__(self, params: MachineParams) -> None:
        self.params = params
        self.state = [
            ProcessorState(dests=[None] * params.n_modules)
            for _ in range(params.n_processors)
        ]

    def send_ipi(self, initiator: int, target: int, target_cost: int) -> None:
        """Record an IPI: the target will pay ``target_cost`` ns soon."""
        if initiator == target:
            raise ValueError("a processor does not IPI itself")
        self.state[initiator].ipis_sent += 1
        st = self.state[target]
        st.ipis_received += 1
        st.pending_penalty += target_cost

    def charge(self, processor: int, cost: int) -> None:
        """Charge arbitrary asynchronous kernel time to a processor; the
        thread executor takes it at the start of the next op."""
        self.state[processor].pending_penalty += cost

    def totals(self) -> dict[str, int]:
        return {
            "ipis_sent": sum(s.ipis_sent for s in self.state),
            "ipis_received": sum(s.ipis_received for s in self.state),
        }
