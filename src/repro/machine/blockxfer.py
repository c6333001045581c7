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
        # per-machine constants: every frame holds one page
        self._page_words = params.words_per_page
        self._page_copy_time = params.page_copy_time
        self._page_occupancy = self._occupancy(self._page_copy_time)

    def _occupancy(self, duration: int) -> int:
        """An endpoint bus's share of a transfer between two modules."""
        # the one product of a time with a non-integer factor
        occupancy = int(round(
            duration * self.params.block_transfer_bus_fraction))
        if occupancy < 0:
            raise ValueError(f"negative duration {occupancy}")
        return occupancy

    def occupy_endpoints(
        self, src_module: int, dst_module: int, now: int, duration: int
    ) -> int:
        """Reserve the endpoint buses for a ``duration``-ns transfer
        issued at ``now``; returns when it completes (port messages)."""
        src_bus = self.modules[src_module].bus
        if src_module == dst_module:
            # local copy: single bus, full occupancy
            return src_bus.occupy(now, duration)[1]
        # both buses must be available; occupy each at the configured
        # fraction of the transfer duration starting together
        dst_bus = self.modules[dst_module].bus
        start = max(now, src_bus.busy_until, dst_bus.busy_until)
        occupancy = self._occupancy(duration)
        # FifoResource.occupy(start, occupancy) on a bus that is free at
        # ``start``: nothing waits
        for bus in (src_bus, dst_bus):
            bus.busy_until = start + occupancy
            bus.busy_time += occupancy
            bus.requests += 1
        return start + duration

    def transfer_page(self, src: Frame, dst: Frame, now: int) -> int:
        """Copy ``src``'s data into ``dst``; returns the completion time
        (absolute ns) of a transfer the kernel initiates at ``now``.  The
        buses are reserved as :meth:`occupy_endpoints` reserves them, in
        place (held to it by tests/test_machine_blockxfer_interrupts.py).
        """
        words = self._page_words
        if len(src.data) != words or len(dst.data) != words:
            raise ValueError("frame size mismatch in block transfer")
        src_bus = self.modules[src.module_index].bus
        dst_module = self.modules[dst.module_index]
        dst_bus = dst_module.bus
        if src_bus is dst_bus:  # local copy: single bus, full occupancy
            end = src_bus.occupy(now, self._page_copy_time)[1]
        else:
            start = max(now, src_bus.busy_until, dst_bus.busy_until)
            occupancy = self._page_occupancy
            for bus in (src_bus, dst_bus):
                bus.busy_until = start + occupancy
                bus.busy_time += occupancy
                bus.requests += 1
            end = start + self._page_copy_time
        if not dst_module.dataless:
            dst.copy_from(src)
        self.transfer_count += 1
        self.words_transferred += words
        self.total_busy_time += end - now
        return end
