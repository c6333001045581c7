"""User-level synchronization built on real coherent-memory traffic.

Spin locks, event counts and barriers occupy words in coherent memory, and
acquiring/advancing them issues genuine atomic read-modify-writes through
the memory system.  This is essential to the reproduction: interleaved
writes to a synchronization word invalidate replicas of its page, which is
exactly what makes the replication policy freeze such pages (the section
4.2 Gaussian-elimination anecdote, and the frozen event-count page of
section 5.1).

Blocking, as opposed to the memory traffic, is modelled with
:class:`Broadcast` wakeup channels using a version-capture idiom that is
immune to lost wakeups:

    v = channel.version          # capture first
    <read/modify the shared word>
    yield WaitNewer(channel, v)  # no-op if anything fired since capture

Each retry after a wakeup re-issues the atomic operation, so contended
synchronization generates the repeated interleaved write traffic a real
spin loop's test-and-set attempts would.
"""

from __future__ import annotations

from typing import Generator

from ..sim.engine import Engine
from ..sim.sync import SimEvent
from .ops import FetchAdd, Read, TestAndSet, WaitNewer, Write


class Broadcast:
    """A versioned broadcast wakeup channel."""

    #: class-level trace-recorder hook (see ``repro.replay.recorder``).
    #: Fires are Python-level causality the replayer must reproduce, and
    #: they can come from any Broadcast instance, so recording installs a
    #: single class-wide observer rather than wrapping each channel.
    recorder = None

    def __init__(self, engine: Engine, name: str = "broadcast") -> None:
        self.event = SimEvent(engine, name)
        self.name = name
        self.version = 0

    def fire(self) -> None:
        self.version += 1
        if Broadcast.recorder is not None:
            Broadcast.recorder.note_fire(self)
        self.event.fire()


class SpinLock:
    """A test-and-set spin lock occupying one word of coherent memory."""

    def __init__(self, engine: Engine, va: int, name: str = "lock") -> None:
        self.va = va
        self.name = name
        self.wake = Broadcast(engine, f"{name}.wake")
        self.acquisitions = 0
        self.contended_waits = 0

    def acquire(self) -> Generator:
        """``yield from lock.acquire()`` inside a thread body."""
        while True:
            seen = self.wake.version
            old = yield TestAndSet(self.va, 1)
            if old == 0:
                self.acquisitions += 1
                return
            self.contended_waits += 1
            yield WaitNewer(self.wake, seen)

    def release(self) -> Generator:
        yield Write(self.va, 0)
        self.wake.fire()


class EventCount:
    """A monotonically increasing counter with waiting (paper's programs
    synchronize with arrays of event counts)."""

    def __init__(self, engine: Engine, va: int, name: str = "evc") -> None:
        self.va = va
        self.name = name
        self.wake = Broadcast(engine, f"{name}.wake")

    def advance(self) -> Generator:
        """Increment the count; wakes any waiting threads."""
        new = yield FetchAdd(self.va, 1)
        self.wake.fire()
        return new

    def read(self) -> Generator:
        val = yield Read(self.va, 1)
        return int(val[0])

    def await_at_least(self, target: int) -> Generator:
        """Wait (spinning on the count word) until count >= target."""
        while True:
            seen = self.wake.version
            val = yield Read(self.va, 1)
            if int(val[0]) >= target:
                return int(val[0])
            yield WaitNewer(self.wake, seen)


class Barrier:
    """A central sense-reversing barrier over two coherent-memory words."""

    def __init__(
        self, engine: Engine, count_va: int, gen_va: int, n: int,
        name: str = "barrier",
    ) -> None:
        if n < 1:
            raise ValueError("barrier needs at least one participant")
        self.count_va = count_va
        self.gen_va = gen_va
        self.n = n
        self.name = name
        self.wake = Broadcast(engine, f"{name}.wake")
        self.rounds = 0

    def wait(self) -> Generator:
        gen_val = yield Read(self.gen_va, 1)
        generation = int(gen_val[0])
        arrived = yield FetchAdd(self.count_va, 1)
        if arrived == self.n:
            self.rounds += 1
            yield Write(self.count_va, 0)
            yield Write(self.gen_va, generation + 1)
            self.wake.fire()
            return
        while True:
            seen = self.wake.version
            cur = yield Read(self.gen_va, 1)
            if int(cur[0]) != generation:
                return
            yield WaitNewer(self.wake, seen)
