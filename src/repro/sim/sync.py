"""Simulated-time synchronization primitives.

These are *engine-level* primitives: they wake suspended simulation
processes.  They carry no memory-system cost by themselves.  The PLATINUM
user-level primitives (spin locks, event counts, barriers) in
``repro.runtime.sync`` are built from real simulated memory accesses plus
these wakeup channels, so that synchronization generates the memory traffic
the paper's replication policy reacts to.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import Engine


class SimEvent:
    """A one-shot or reusable wakeup channel.

    Waiters register callbacks; :meth:`fire` schedules all of them at the
    current simulated time (plus an optional delay) and clears the list, so
    the event can be reused as a broadcast channel.
    """

    def __init__(self, engine: Engine, name: str = "event") -> None:
        self.engine = engine
        self.name = name
        self._waiters: list[Callable[[Any], None]] = []
        self.fire_count = 0

    def __repr__(self) -> str:
        return f"<SimEvent {self.name} waiters={len(self._waiters)}>"

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)`` to run when the event next fires."""
        self._waiters.append(callback)

    def fire(self, value: Any = None, delay: float = 0) -> int:
        """Wake all current waiters.  Returns the number woken."""
        waiters = self._waiters
        self._waiters = []
        self.fire_count += 1
        for cb in waiters:
            self.engine.schedule(delay, lambda cb=cb: cb(value))
        return len(waiters)
