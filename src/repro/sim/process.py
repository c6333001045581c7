"""Generator-based simulated processes.

A simulation process is a Python generator that ``yield``s operation
objects.  The base :class:`Process` understands :class:`Delay` and
:class:`WaitFor`; richer operations (memory reads and writes, lock
acquires, ...) are interpreted by subclasses -- in this reproduction, by the
simulated processor's thread context, which translates them into machine
and kernel activity.

The generator's ``return`` value becomes ``process.result``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from .engine import Engine, SimulationError
from .sync import SimEvent


class Op:
    """Base class for everything a simulation process may yield."""

    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Delay(Op):
    """Suspend the process for ``ns`` simulated nanoseconds."""

    ns: float


@dataclass(slots=True, unsafe_hash=True)
class WaitFor(Op):
    """Suspend the process until ``event`` fires; resumes with its value."""

    event: SimEvent


class ProcessCrashed(SimulationError):
    """A simulated process raised an exception; see ``__cause__``."""


class Process:
    """Drives one generator in simulated time.

    Subclasses override :meth:`interpret` to support additional yielded
    operation types.  ``interpret`` must arrange for :meth:`_resume` to be
    called exactly once (immediately or in a future event).
    """

    __slots__ = (
        "engine",
        "gen",
        "name",
        "started",
        "finished",
        "result",
        "error",
        "finished_at",
        "_on_finish",
        "_wake_value",
    )

    def __init__(
        self,
        engine: Engine,
        gen: Generator[Op, Any, Any],
        name: str = "process",
    ) -> None:
        self.engine = engine
        self.gen = gen
        self.name = name
        self.started = False
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.finished_at: Optional[int] = None
        self._on_finish: list[Callable[["Process"], None]] = []
        self._wake_value: Any = None  # what a pending _wake resumes with

    def __repr__(self) -> str:
        state = "finished" if self.finished else (
            "running" if self.started else "new"
        )
        return f"<{type(self).__name__} {self.name} {state}>"

    def on_finish(self, callback: Callable[[Process], None]) -> None:
        if self.finished:
            callback(self)
        else:
            self._on_finish.append(callback)

    def start(self, delay: float = 0) -> "Process":
        if self.started:
            raise SimulationError(f"{self.name} already started")
        self.started = True
        self.engine.schedule(delay, self._wake)
        return self

    def _wake(self) -> None:
        """The one engine callback of a process; a single value slot
        serves every op.  It is emptied *before* resuming: the generator
        may run on synchronously (GetTime) into an op that refills it."""
        value = self._wake_value
        self._wake_value = None
        self._resume(value)

    def _resume(self, value: Any) -> None:
        """Advance the generator until it yields again or finishes."""
        if self.finished:
            raise SimulationError(f"{self.name} resumed after finishing")
        try:
            op = self.gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - recorded, not hidden
            self._finish(error=exc)
            return
        self.interpret(op)

    def _throw(self, exc: BaseException) -> None:
        """Inject an exception at the process's suspension point."""
        if self.finished:
            raise SimulationError(f"{self.name} resumed after finishing")
        try:
            op = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as err:  # noqa: BLE001
            self._finish(error=err)
            return
        self.interpret(op)

    def _finish(
        self, result: Any = None, error: Optional[BaseException] = None
    ) -> None:
        self.finished = True
        self.result = result
        self.error = error
        self.finished_at = self.engine.now
        callbacks, self._on_finish = self._on_finish, []
        for cb in callbacks:
            cb(self)

    def interpret(self, op: Op) -> None:
        """Handle one yielded operation.  Subclasses extend this."""
        if isinstance(op, Delay):
            self.engine.schedule(op.ns, self._wake)
        elif isinstance(op, WaitFor):
            op.event.wait(self._resume)
        else:
            self._throw(
                SimulationError(
                    f"{self.name} yielded unsupported operation {op!r}"
                )
            )

    def check(self) -> Any:
        """Raise if the process crashed; otherwise return its result."""
        if self.error is not None:
            raise ProcessCrashed(
                f"simulated process {self.name!r} crashed"
            ) from self.error
        return self.result

