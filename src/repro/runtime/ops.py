"""Operations a user thread may yield to the executor.

Workload programs are generators over these operations.  Addresses are in
*words* (the Butterfly's unit of access is the 32-bit word); a virtual
page is ``params.words_per_page`` consecutive words.  Reads and writes may
span pages; the executor splits them into per-page runs, each of which is
translated by the simulated MMU and may fault into the PLATINUM kernel.

Atomic operations (:class:`TestAndSet`, :class:`FetchAdd`) apply their
read-modify-write at the simulation event where the operation is issued,
so two racing atomics serialize in event order -- the "atomicity of memory
operations" the paper's neural-network simulator relies on for
synchronization.

Op records are slotted dataclasses, immutable by convention only (a
frozen one costs an ``object.__setattr__`` per field on every op built):
never mutate an op once built -- a program may yield one op many times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from ..sim.process import Op, WaitFor

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.ports import Port
    from .sync import Broadcast


@dataclass(slots=True, unsafe_hash=True)
class Compute(Op):
    """Pure computation: occupies the processor for ``ns`` nanoseconds."""

    ns: float


@dataclass(slots=True, unsafe_hash=True)
class Read(Op):
    """Read ``n`` consecutive words starting at word address ``va``.

    Resumes with a numpy array copy of the data.
    """

    va: int
    n: int = 1


@dataclass(slots=True, unsafe_hash=True)
class Write(Op):
    """Write ``value`` (scalar or array) starting at word address ``va``."""

    va: int
    value: Union[int, np.ndarray]


@dataclass(slots=True, unsafe_hash=True)
class TestAndSet(Op):
    """Atomically set word ``va`` to ``value``; resumes with the old word."""

    va: int
    value: int = 1


@dataclass(slots=True, unsafe_hash=True)
class FetchAdd(Op):
    """Atomically add ``delta`` to word ``va``; resumes with the new value."""

    va: int
    delta: int = 1


@dataclass(slots=True, unsafe_hash=True)
class Migrate(Op):
    """Explicitly migrate this thread to another processor."""

    processor: int


@dataclass(slots=True, unsafe_hash=True)
class SendPort(Op):
    """Send a message (word array) to a port."""

    port: "Port"
    data: np.ndarray


@dataclass(slots=True, unsafe_hash=True)
class RecvPort(Op):
    """Blocking receive; resumes with the message's word array."""

    port: "Port"


@dataclass(slots=True, unsafe_hash=True)
class WaitNewer(Op):
    """Wait until a broadcast channel's version exceeds ``seen``.

    Resumes immediately if it already does -- this is what makes the
    capture-version / check / wait idiom in ``runtime.sync`` free of lost
    wakeups.
    """

    channel: "Broadcast"
    seen: int


@dataclass(slots=True, unsafe_hash=True)
class GetTime(Op):
    """Resume immediately with the current simulated time (ns)."""


__all__ = [
    "Compute",
    "FetchAdd",
    "GetTime",
    "Migrate",
    "Read",
    "RecvPort",
    "SendPort",
    "TestAndSet",
    "WaitFor",
    "WaitNewer",
    "Write",
]
