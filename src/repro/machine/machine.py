"""The assembled NUMA machine.

Ties together the event engine, memory modules, interconnect topology,
per-processor MMUs, block-transfer engine and interrupt controller, and
provides the single access-costing primitive every higher layer uses:
:meth:`Machine.access`.

Cost model for a batched access of ``n`` words from node ``src`` to a frame
in module ``dst`` (see DESIGN.md section 5):

* every switch port on the route is occupied for ``n * t_switch_service``;
* the destination module's bus is occupied for ``n * t_module_service``;
* the requester additionally pays the per-word wire/protocol latency so
  that, on an idle machine, the total is exactly ``n * T_l`` for local
  accesses and ``n * T_r`` for remote ones -- the paper's measured numbers.

Queueing at any shared resource adds delay on top, which is how memory and
switch contention (paper sections 1 and 7) arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sim.engine import Engine
from .blockxfer import BlockTransferEngine
from .interrupts import InterruptController
from .memory import WORD_DTYPE, Frame, MemoryModule
from .mmu import MMU
from .params import MachineParams
from .pmap import InvertedPageTable
from .topology import Topology, make_topology


@dataclass(slots=True)
class AccessOutcome:
    """Result of costing one batched access."""

    completion: int
    queue_delay: int
    remote: bool
    words: int


class Machine:
    """A simulated NUMA multiprocessor."""

    def __init__(
        self,
        params: MachineParams,
        engine: Optional[Engine] = None,
        dataless: bool = False,
    ) -> None:
        self.params = params
        self.engine = engine if engine is not None else Engine()
        # dataless machines share one word array across every frame: the
        # trace replayer costs accesses without moving data, so it skips
        # the per-frame word arrays, zeroing and page copies
        shared = (
            np.zeros(self.params.words_per_page, dtype=WORD_DTYPE)
            if dataless
            else None
        )
        self.modules = [
            MemoryModule(i, self.params, frame_data=shared)
            for i in range(self.params.n_modules)
        ]
        self.ipts = [InvertedPageTable(m) for m in self.modules]
        self.topology: Topology = make_topology(self.params)
        self.mmus = [
            MMU(i, self.params) for i in range(self.params.n_processors)
        ]
        self.xfer = BlockTransferEngine(
            self.engine, self.params, self.modules
        )
        self.interrupts = InterruptController(self.params)
        # per-processor accounting of how simulated time was spent.  One
        # batched n-word access is one counter update (plain Python ints:
        # numpy scalar indexing costs ~10x an int add on this hot path).
        self.local_words: list[int] = [0] * self.params.n_processors
        self.remote_words: list[int] = [0] * self.params.n_processors
        # write subset of remote_words: reads and writes have different
        # per-word latencies, so exact time attribution needs the split
        self.remote_write_words: list[int] = [0] * self.params.n_processors
        self.queue_delay_ns: list[int] = [0] * self.params.n_processors

    def __repr__(self) -> str:
        return (
            f"<Machine {self.params.n_processors}p "
            f"{self.topology.describe()}>"
        )

    @property
    def now(self) -> int:
        return self.engine.now

    def access(
        self,
        src_node: int,
        frame: Frame,
        n_words: int,
        write: bool,
        now: int,
    ) -> AccessOutcome:
        """Cost a batched ``n_words``-word access; no data movement here."""
        if n_words <= 0:
            raise ValueError(f"access of {n_words} words")
        p = self.params
        dst = frame.module_index
        remote = src_node != dst
        module = self.modules[dst]
        t = now
        if remote:
            route = self.topology.route(src_node, dst)
            n_hops = len(route)
            for port in route:
                _, t = port.occupy(t, n_words * p.t_switch_service)
            t_word = p.t_remote_write if write else p.t_remote_read
        else:
            n_hops = 0
            t_word = p.t_local
        _, t = module.bus.occupy(t, n_words * p.t_module_service)
        service_per_word = p.t_module_service + n_hops * p.t_switch_service
        extra_per_word = t_word - service_per_word
        if extra_per_word < 0:
            extra_per_word = 0
        completion = t + n_words * extra_per_word
        queue_delay = t - (now + n_words * service_per_word)
        if queue_delay < 0:
            queue_delay = 0
        # batched accounting: the whole contiguous run is one counter
        # update here and one on the serving module, however many words
        if remote:
            self.remote_words[src_node] += n_words
            if write:
                self.remote_write_words[src_node] += n_words
        else:
            self.local_words[src_node] += n_words
        self.queue_delay_ns[src_node] += queue_delay
        module.words_served += n_words
        module.accesses_served += 1
        return AccessOutcome(
            completion=completion,
            queue_delay=queue_delay,
            remote=remote,
            words=n_words,
        )

    def utilization_report(self) -> dict[str, float]:
        """Busy fractions of the memory-module buses and switch ports."""
        now = max(1, self.now)
        report = {
            m.bus.name: m.bus.busy_time / now for m in self.modules
        }
        for res in self.topology.all_resources():
            report[res.name] = res.busy_time / now
        return report
