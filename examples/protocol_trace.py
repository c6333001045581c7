#!/usr/bin/env python
"""Watching the protocol work: tracing one page's life.

Enables the kernel's protocol tracer, runs a small workload, and walks
through the life of a single coherent page: first touch, replication to
readers, collapse on a write, migration, freezing under interference,
and the defrost daemon's thaw.  This is the performance-analysis
instrumentation the paper's section 9 describes as future work.

Run:  python examples/protocol_trace.py
"""

import numpy as np

from repro import make_kernel
from repro.core import EventKind
from repro.point import point_kernel
from repro.runtime import (
    Compute,
    Program,
    Read,
    Write,
    run_program,
)


class PageLife(Program):
    """A deliberately eventful life for one page."""

    name = "page-life"

    def setup(self, api):
        arena = api.arena(2, label="star")
        self.va = arena.alloc(64, page_aligned=True)
        self.cpage = arena.cpage_of(self.va)
        sync = api.arena(1, label="sync")
        self.step = api.event_count(sync, name="step")
        api.spawn(0, self.author, name="author")
        api.spawn(1, self.reader_one, name="reader1")
        api.spawn(2, self.reader_two, name="reader2")
        api.spawn(3, self.rival, name="rival")

    def author(self, env):
        yield Write(self.va, np.arange(64, dtype=np.int64))  # first touch
        yield from self.step.advance()  # 1: data ready
        yield from self.step.await_at_least(3)  # readers replicated
        yield Write(self.va, 7)  # collapse the replicas
        yield from self.step.advance()  # 4
        return "author"

    def reader_one(self, env):
        yield from self.step.await_at_least(1)
        yield Read(self.va, 64)  # replicate to node 1
        yield from self.step.advance()  # 2
        return "r1"

    def reader_two(self, env):
        yield from self.step.await_at_least(2)
        yield Read(self.va, 64)  # replicate to node 2
        yield from self.step.advance()  # 3
        return "r2"

    def rival(self, env):
        yield from self.step.await_at_least(4)
        # interleaved writes with the author inside t1: freeze territory
        for i in range(3):
            yield Write(self.va + i, i)  # migrate, then freeze
            yield Compute(100_000)
        return "rival"


def main() -> None:
    kernel = make_kernel(n_processors=4, trace=True, defrost_period=50e6)
    prog = PageLife()
    result = run_program(kernel, prog)
    tracer = kernel.tracer

    print(f"ran {result.sim_time_ms:.1f} ms simulated; "
          f"{len(tracer)} protocol events recorded\n")
    print("event counts:", tracer.counts(), "\n")

    index = prog.cpage.index
    print(f"the life of cpage {index} ({prog.cpage.label!r}):")
    print(tracer.timeline(index, limit=40))
    print()
    print("state transitions:", " -> ".join(
        f"{a}->{b}" for a, b in tracer.transitions_of(index)
    ))

    print("\nfor contrast, the section 8 competitive comparator needs")
    print("reference counts for the same information at runtime:")
    kernel2 = point_kernel(
        {"machine": 4, "competitive": True, "competitive_period": 20e6})
    (daemon,) = kernel2.coherent.daemons
    run_program(kernel2, PageLife())
    print(f"  daemon sweeps: {daemon.runs}, pages re-placed: "
          f"{daemon.pages_replaced}, threshold "
          f"{daemon.threshold_words} remote words (the break-even)")


if __name__ == "__main__":
    main()
