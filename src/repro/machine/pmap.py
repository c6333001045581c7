"""The physical map (Pmap) layer: the machine-dependent page tables.

Paper section 2.1: "The physical map system is a simple machine-dependent
page table and address translation cache management module."

Two structures live here:

* :class:`Pmap` -- a per-(processor, address space) table caching the
  composition of the virtual-to-coherent and coherent-to-physical mappings.
  PLATINUM gives every processor its *own private* Pmap per address space
  (unlike Mach's single shared Pmap), which is what makes its shootdown
  mechanism cheap (paper section 3.1).  A Pmap is only a cache: it holds a
  working set, not every mapping in the address space.

* :class:`InvertedPageTable` -- one per memory module, describing the state
  of each physical frame in that module: free, or allocated to a given
  coherent page.  The fault handler uses the *local* inverted page table,
  hashed by coherent-page index, to find a local physical copy without any
  remote references (paper section 3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from .memory import Frame, LazyList, MemoryModule


class Rights(enum.IntFlag):
    """Access rights on a mapping.  WRITE implies READ on this hardware."""

    NONE = 0
    READ = 1
    WRITE = 3  # includes READ

    def allows(self, write: bool) -> bool:
        # ints 0, 1 or 3: IntFlag.__and__ costs a microsecond a call
        return self == 3 or (self == 1 and not write)


@dataclass(eq=False, slots=True)
class PmapEntry:
    """One cached virtual-to-physical translation on one processor."""

    vpage: int
    frame: Frame
    rights: Rights
    #: set when the translation points at a frame on another node
    remote: bool = False
    referenced: bool = False
    modified: bool = False
    #: index of the coherent page this translation backs (None for
    #: translations entered outside the coherent memory system); lets
    #: reference-count instrumentation attribute traffic to Cpages
    cpage_index: "int | None" = None

    def __repr__(self) -> str:
        kind = "remote" if self.remote else "local"
        return (
            f"<PmapEntry v{self.vpage}->m{self.frame.module_index}:"
            f"f{self.frame.frame_index} {self.rights.name} {kind}>"
        )


class Pmap:
    """Private per-processor page table for one address space."""

    def __init__(self, processor_index: int, aspace_id: int) -> None:
        self.processor_index = processor_index
        self.aspace_id = aspace_id
        self._entries: dict[int, PmapEntry] = {}

    def __repr__(self) -> str:
        return (
            f"<Pmap cpu{self.processor_index} as{self.aspace_id} "
            f"{len(self._entries)} entries>"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, vpage: int) -> Optional[PmapEntry]:
        return self._entries.get(vpage)

    def enter(
        self, vpage: int, frame: Frame, rights: Rights, remote: bool,
        cpage_index: "int | None" = None,
    ) -> PmapEntry:
        """Install (or replace) the translation for ``vpage``."""
        if rights == Rights.NONE:
            raise ValueError("cannot enter a mapping with no rights")
        entry = PmapEntry(vpage, frame, rights, remote=remote,
                          cpage_index=cpage_index)
        self._entries[vpage] = entry
        return entry

    def restrict(self, vpage: int, rights: Rights) -> bool:
        """Reduce the rights on a translation.  Returns True if changed."""
        entry = self._entries.get(vpage)
        if entry is None:
            return False
        # entry.rights & rights: the values nest (0 in 1 in 3)
        if rights == 0:
            del self._entries[vpage]
            return True
        if rights >= entry.rights:
            return False
        entry.rights = rights
        return True

    def remove(self, vpage: int) -> Optional[PmapEntry]:
        """Invalidate the translation for ``vpage`` if present."""
        return self._entries.pop(vpage, None)

    def entries(self) -> Iterator[PmapEntry]:
        return iter(self._entries.values())

    def clear(self) -> int:
        n = len(self._entries)
        self._entries.clear()
        return n


@dataclass(eq=False, slots=True)
class IptEntry:
    """Inverted-page-table entry: what one physical frame is backing."""

    frame: Frame
    #: coherent page index this frame backs, or None if free
    cpage_index: Optional[int] = None


class InvertedPageTable:
    """Per-module table mapping frames back to coherent pages.

    Lookups are by coherent page index via a hash-and-probe scan, as in the
    paper: "the handler applies a hash function to the index of the Cpage
    and scans the inverted page table to find the physical page"; using the
    local IPT instead of the Cpage directory keeps the fault handler's
    memory references strictly local.
    """

    def __init__(self, module: MemoryModule) -> None:
        self.module = module
        frames = module.frames
        # entries (like the frames they describe) appear on demand
        self._entries = LazyList(len(frames), lambda i: IptEntry(frames[i]))
        #: direct index from cpage -> frame index, modelling the result of
        #: the hash-probe (the probe *cost* is charged by the fault path)
        self._by_cpage: dict[int, int] = {}
        self.probe_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def n_free(self) -> int:
        return self.module.n_free

    def find_local_copy(self, cpage_index: int) -> Optional[Frame]:
        """Frame in this module backing ``cpage_index``, if any."""
        self.probe_count += 1
        idx = self._by_cpage.get(cpage_index)
        if idx is None:
            return None
        # indexed means allocated, so the entry exists: no LazyList call
        entry = self._entries._items[idx]
        if entry.cpage_index != cpage_index:
            raise RuntimeError("inverted page table index out of sync")
        return entry.frame

    def allocate_for(self, cpage_index: int) -> Optional[Frame]:
        """Allocate a free local frame (zeroed) and bind it to a coherent
        page; ``None`` when the module is full.  ``MemoryModule.allocate``
        in place, reading built ``LazyList`` items directly (held to it
        by tests/test_machine_pmap.py)."""
        module = self.module
        if cpage_index in self._by_cpage:
            raise RuntimeError(
                f"module {module.index} already backs cpage {cpage_index}")
        if not module._free:
            return None
        index = module._free.pop()
        built = module.frames._items[index] is None
        entry = self._entries._items[index]
        if entry is None:
            entry = self._entries[index]  # builds the frame too, if need be
        frame = entry.frame
        if frame.allocated:
            raise RuntimeError(f"free list corrupt: {frame!r} was allocated")
        frame.allocated = True
        # a frame built just now is np.zeros already: zero reused ones
        if not built and not module.dataless:
            frame.data[:] = 0
        module.alloc_count += 1
        entry.cpage_index = cpage_index
        self._by_cpage[cpage_index] = index
        return frame

    def release(self, frame: Frame) -> int:
        """Free a frame; returns the coherent page it was backing.
        ``MemoryModule.release`` in place."""
        index = frame.frame_index
        entry = self._entries._items[index]
        cpage_index = None if entry is None else entry.cpage_index
        if cpage_index is None:
            raise RuntimeError(f"releasing free frame {frame!r}")
        module = self.module
        if frame.module_index != module.index:
            raise ValueError(
                f"{frame!r} does not belong to module {module.index}")
        if not frame.allocated:
            raise RuntimeError(f"double free of {frame!r}")
        entry.cpage_index = None
        del self._by_cpage[cpage_index]
        frame.allocated = False
        module._free.append(index)
        module.free_count += 1
        return cpage_index

    def owner_of(self, frame: Frame) -> Optional[int]:
        return self._entries[frame.frame_index].cpage_index
