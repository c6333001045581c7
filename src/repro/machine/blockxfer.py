"""The block-transfer engine.

The Butterfly Plus has a fast, asynchronous microcoded block-transfer
mechanism; PLATINUM's page migration/replication is a kernel-initiated
page-aligned block transfer (paper section 4: 1.11 ms per 4 KB page without
contention).  Section 7 notes that a transfer "consumes 75% of the available
local memory bus bandwidth on both nodes involved", memory-starving both
processors.

We model a transfer of one page as:

* real data copied between the two frames;
* both endpoint memory-module buses occupied for
  ``bus_fraction * duration`` starting when both are free (so concurrent
  local work on either node queues behind most of the transfer);
* the initiating kernel path completing at ``start + duration``.
"""

from __future__ import annotations

from ..sim.engine import Engine
from .memory import Frame, MemoryModule
from .params import MachineParams


class BlockTransferEngine:
    """Performs page copies with bus-occupancy accounting."""

    def __init__(
        self,
        engine: Engine,
        params: MachineParams,
        modules: list[MemoryModule],
    ) -> None:
        self.engine = engine
        self.params = params
        self.modules = modules
        self.transfer_count = 0
        self.words_transferred = 0
        self.total_busy_time = 0

    def occupy_endpoints(
        self, src_module: int, dst_module: int, now: int, duration: int
    ) -> int:
        """Reserve the endpoint buses for a ``duration``-ns transfer
        issued at ``now``; returns when it completes.  Page copies and
        port messages both come through here."""
        src_bus = self.modules[src_module].bus
        if src_module == dst_module:
            # local copy: single bus, full occupancy
            return src_bus.occupy(now, duration)[1]
        # both buses must be available; occupy each at the configured
        # fraction of the transfer duration starting together
        dst_bus = self.modules[dst_module].bus
        start = max(now, src_bus.busy_until, dst_bus.busy_until)
        # the one product of a time with a non-integer factor
        occupancy = int(round(
            duration * self.params.block_transfer_bus_fraction))
        if occupancy < 0:
            raise ValueError(f"negative duration {occupancy}")
        # FifoResource.occupy(start, occupancy) on a bus that is free at
        # ``start``: nothing waits
        for bus in (src_bus, dst_bus):
            bus.busy_until = start + occupancy
            bus.busy_time += occupancy
            bus.requests += 1
        return start + duration

    def transfer_page(self, src: Frame, dst: Frame, now: int) -> int:
        """Copy ``src``'s data into ``dst``.

        Returns the completion time (absolute ns).  ``now`` is the time the
        kernel initiates the transfer.
        """
        words = len(src.data)
        if words != len(dst.data):
            raise ValueError("frame size mismatch in block transfer")
        end = self.occupy_endpoints(
            src.module_index, dst.module_index, now,
            self.params.t_block_word * words,
        )
        if not self.modules[dst.module_index].dataless:
            dst.copy_from(src)
        self.transfer_count += 1
        self.words_transferred += words
        self.total_busy_time += end - now
        return end
