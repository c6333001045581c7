"""Kernel threads (paper section 1.1).

A thread is a kernel-scheduled thread of control bound to a single
processor at any time; an explicit migration operation moves it, and the
kernel moves its kernel stack along with it (section 2.2 -- the stack
lives in coherent memory, so leaving it behind would fault circularly).
Threads execute within exactly one address space; the manager keeps the
per-processor active-address-space bookkeeping the shootdown mechanism
relies on (a processor is only interrupted for address spaces it has
active).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from ..core.coherent_memory import CoherentMemorySystem
from ..machine.machine import Machine


class ThreadState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"


@dataclass(eq=False)
class Thread:
    """Kernel-visible thread control block."""

    tid: int
    aspace_id: int
    processor: int
    name: str = ""
    state: ThreadState = ThreadState.NEW
    migrations: int = 0

    def __repr__(self) -> str:
        return (
            f"<Thread {self.tid} {self.name!r} cpu{self.processor} "
            f"{self.state.value}>"
        )


class ThreadManager:
    """Tracks threads and per-processor address-space activation."""

    def __init__(
        self, machine: Machine, coherent: CoherentMemorySystem
    ) -> None:
        self.machine = machine
        self.coherent = coherent
        self.threads: dict[int, Thread] = {}
        self._next_tid = 0
        #: (processor, aspace_id) -> number of threads bound there
        self._active_counts: dict[tuple[int, int], int] = {}

    def spawn(
        self, aspace_id: int, processor: int, name: str = ""
    ) -> Thread:
        """Create a thread bound to ``processor``.

        Returns the control block; the execution layer drives its body.
        """
        n = self.machine.params.n_processors
        if not 0 <= processor < n:
            raise ValueError(f"processor {processor} out of range (n={n})")
        thread = Thread(
            tid=self._next_tid,
            aspace_id=aspace_id,
            processor=processor,
            name=name or f"thread{self._next_tid}",
        )
        self._next_tid += 1
        self.threads[thread.tid] = thread
        self._activate(processor, aspace_id)
        thread.state = ThreadState.RUNNABLE
        return thread

    def migrate(self, thread: Thread, to_processor: int) -> int:
        """Move a thread to another processor.

        Returns the kernel cost: deactivation/activation bookkeeping plus
        the explicit kernel-stack move (one page block-transfer's worth of
        copying, charged as latency to the migrating thread).
        """
        n = self.machine.params.n_processors
        if not 0 <= to_processor < n:
            raise ValueError(f"processor {to_processor} out of range")
        if thread.state is ThreadState.DONE:
            raise RuntimeError(f"{thread!r} has exited")
        if to_processor == thread.processor:
            return 0
        old = thread.processor
        self._deactivate(old, thread.aspace_id)
        thread.processor = to_processor
        thread.migrations += 1
        cost = self._activate(to_processor, thread.aspace_id)
        p = self.machine.params
        # the kernel stack is explicitly moved with the thread
        cost += p.page_copy_time + p.fault_fixed_local
        return cost

    def exit(self, thread: Thread) -> None:
        if thread.state is ThreadState.DONE:
            return
        thread.state = ThreadState.DONE
        self._deactivate(thread.processor, thread.aspace_id)

    # -- activation bookkeeping --------------------------------------------------

    def _activate(self, processor: int, aspace_id: int) -> int:
        key = (processor, aspace_id)
        count = self._active_counts.get(key, 0)
        self._active_counts[key] = count + 1
        if count == 0:
            return self.coherent.activate(aspace_id, processor)
        return 0

    def _deactivate(self, processor: int, aspace_id: int) -> None:
        key = (processor, aspace_id)
        count = self._active_counts.get(key, 0)
        if count <= 0:
            raise RuntimeError(
                f"aspace {aspace_id} not active on cpu{processor}"
            )
        if count == 1:
            del self._active_counts[key]
            self.coherent.deactivate(aspace_id, processor)
        else:
            self._active_counts[key] = count - 1
