"""Physical memory: modules and page frames.

Each processor node owns one memory module.  A module holds a fixed number
of page frames; each frame carries *real data* (a numpy word array), so the
coherency protocol's correctness is end-to-end observable -- replication
copies bytes, writes mutate the single writable copy, and application
results (a sorted array, an eliminated matrix) prove coherence.

Frame allocation here is the raw hardware view.  Which coherent page a
frame backs is tracked by the kernel's per-module inverted page table
(``repro.kernel.pmap.InvertedPageTable``); the module only knows free vs
allocated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ..sim.resource import FifoResource
from .params import MachineParams

#: dtype of a simulated 32-bit word.  int64 is used so workloads can do
#: integer arithmetic without worrying about overflow semantics.
WORD_DTYPE = np.int64


class OutOfFramesError(MemoryError):
    """A memory module has no free page frames."""


class LazyList:
    """A fixed-length sequence whose elements materialize on first use.

    A machine has thousands of frames and inverted-page-table entries
    per module but a run touches only the few it allocates, so a kernel
    costs O(pages used), not O(physical memory).  Not a ``list``: only
    ``len()``, integer indexing and (through it) iteration exist, and
    they materialize what they hand out -- nothing can observe a hole.
    """

    __slots__ = ("_items", "_factory", "materialized")

    def __init__(self, n: int, factory) -> None:
        self._items: list = [None] * n
        self._factory = factory
        self.materialized = 0  #: elements built so far

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if type(index) is not int:
            index = operator.index(index)  # a slice is a TypeError
        value = self._items[index]
        if value is None:
            value = self._factory(index % len(self._items))
            self._items[index] = value
            self.materialized += 1
        return value


@dataclass(eq=False, slots=True)
class Frame:
    """One physical page frame.

    Attributes
    ----------
    module_index:
        The memory module (== node) holding this frame.
    frame_index:
        Index of the frame within its module.
    data:
        The frame's contents, one entry per word.
    allocated:
        Raw hardware-level allocation flag (mirrored by the inverted page
        table at the kernel level).
    """

    module_index: int
    frame_index: int
    data: np.ndarray
    allocated: bool = False

    def __repr__(self) -> str:
        state = "alloc" if self.allocated else "free"
        return f"<Frame m{self.module_index}:f{self.frame_index} {state}>"

    def zero(self) -> None:
        self.data[:] = 0

    def copy_from(self, other: "Frame") -> None:
        if other is self:
            raise ValueError("cannot copy a frame onto itself")
        self.data[:] = other.data


class MemoryModule:
    """One node's memory: frames plus a FIFO bus resource for contention.

    Frames materialize on first allocation.  ``frame_data`` makes the
    module *dataless*: every frame shares the one given word array and
    allocation skips zeroing.  Timing is unaffected (data movement
    carries no simulated cost).  Used by the trace replayer, which
    never reads frame contents.
    """

    def __init__(
        self,
        index: int,
        params: MachineParams,
        frame_data: np.ndarray | None = None,
    ) -> None:
        self.index = index
        self.params = params
        self.dataless = frame_data is not None
        words = params.words_per_page
        self.frames = LazyList(
            params.frames_per_module,
            lambda i: Frame(index, i, np.zeros(words, dtype=WORD_DTYPE)
                            if frame_data is None else frame_data),
        )
        self._free: list[int] = list(range(params.frames_per_module - 1, -1, -1))
        self.bus = FifoResource(f"module[{index}].bus")
        self.alloc_count = 0
        self.free_count = 0
        # batched word-access accounting: one contiguous n-word run
        # through this module bumps each counter once, not n times
        self.words_served = 0
        self.accesses_served = 0

    def __repr__(self) -> str:
        return (
            f"<MemoryModule {self.index} free={self.n_free}/"
            f"{len(self.frames)}>"
        )

    @property
    def n_free(self) -> int:
        return len(self._free)

    def allocate(self) -> Frame:
        """Take a free frame (zeroed).  Raises OutOfFramesError if full."""
        if not self._free:
            raise OutOfFramesError(
                f"memory module {self.index} has no free frames"
            )
        built = self.frames.materialized
        frame = self.frames[self._free.pop()]
        if frame.allocated:
            raise RuntimeError(f"free list corrupt: {frame!r} was allocated")
        frame.allocated = True
        # a frame built just now is np.zeros already: zero reused ones
        if not self.dataless and self.frames.materialized == built:
            frame.zero()
        self.alloc_count += 1
        return frame

    def release(self, frame: Frame) -> None:
        """Return a frame to the free list."""
        if frame.module_index != self.index:
            raise ValueError(
                f"{frame!r} does not belong to module {self.index}"
            )
        if not frame.allocated:
            raise RuntimeError(f"double free of {frame!r}")
        frame.allocated = False
        self._free.append(frame.frame_index)
        self.free_count += 1
