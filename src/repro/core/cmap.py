"""Coherent maps (Cmaps): per-address-space coherency metadata.

Paper section 2.3: for each address space the coherent memory system caches
the composition of the virtual-to-object and object-to-Cpage mappings in a
*Cmap*, which contains

* a table of virtual-to-coherent page mappings (:class:`CmapEntry`),
* a queue of :class:`CmapMessage` records describing recent restrictions and
  invalidations that remote processors must apply to their private Pmaps,
* a bit mask of processors with this address space active, and
* a private :class:`~repro.machine.pmap.Pmap` per processor using the space.

A Cmap entry's *reference mask* has a bit per processor holding a
virtual-to-physical translation for the page; it is what restricts the set
of shootdown targets to processors actually using a mapping (section 3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..machine.pmap import Pmap, Rights

if TYPE_CHECKING:  # pragma: no cover
    from .cpage import Cpage


class Directive(enum.Enum):
    """What a Cmap message asks target processors to do (section 2.3)."""

    INVALIDATE = "invalidate"
    RESTRICT = "restrict"


@dataclass(eq=False, slots=True)
class CmapMessage:
    """A posted change to an address space's mappings.

    ``target_mask`` names the processors that still have to apply the
    change to their private Pmap; a processor clears its bit after
    applying, and the message is retired when the mask reaches zero.
    """

    vpage: int
    directive: Directive
    rights: Rights
    target_mask: int
    posted_at: int

    def targets(self) -> list[int]:
        out = []
        mask = self.target_mask
        i = 0
        while mask:
            if mask & 1:
                out.append(i)
            mask >>= 1
            i += 1
        return out


@dataclass(eq=False, slots=True)
class CmapEntry:
    """Analogous to a page table entry (paper section 2.3)."""

    vpage: int
    cpage: "Cpage"
    #: rights granted by the virtual memory system; hardware translations
    #: may be more restrictive than this, never less
    vm_rights: Rights
    #: bit per processor holding a v-to-p translation in its Pmap
    ref_mask: int = 0

    def set_ref(self, processor: int) -> None:
        self.ref_mask |= 1 << processor

    def has_ref(self, processor: int) -> bool:
        return bool(self.ref_mask & (1 << processor))


class Cmap:
    """Coherency metadata for one address space."""

    def __init__(self, aspace_id: int, n_processors: int) -> None:
        self.aspace_id = aspace_id
        self.n_processors = n_processors
        self.entries: dict[int, CmapEntry] = {}
        self.messages: list[CmapMessage] = []
        #: processors with this address space currently active
        self.active_mask: int = 0
        self._pmaps: dict[int, Pmap] = {}
        self.messages_posted = 0
        self.messages_applied = 0

    def __repr__(self) -> str:
        return (
            f"<Cmap as{self.aspace_id} entries={len(self.entries)} "
            f"queue={len(self.messages)}>"
        )

    # -- entries -------------------------------------------------------------

    def enter(
        self, vpage: int, cpage: "Cpage", vm_rights: Rights
    ) -> CmapEntry:
        if vpage in self.entries:
            raise ValueError(
                f"aspace {self.aspace_id} vpage {vpage} already mapped"
            )
        entry = CmapEntry(vpage, cpage, vm_rights)
        self.entries[vpage] = entry
        cpage.bind(self, vpage)
        return entry

    def lookup(self, vpage: int) -> Optional[CmapEntry]:
        return self.entries.get(vpage)

    def remove(self, vpage: int) -> Optional[CmapEntry]:
        entry = self.entries.pop(vpage, None)
        if entry is not None:
            entry.cpage.unbind(self, vpage)
        return entry

    # -- per-processor private Pmaps ------------------------------------------

    def pmap_for(self, processor: int, create: bool = False) -> Optional[Pmap]:
        pmap = self._pmaps.get(processor)
        if pmap is None and create:
            pmap = Pmap(processor, self.aspace_id)
            self._pmaps[processor] = pmap
        return pmap

    def pmaps(self) -> dict[int, Pmap]:
        return dict(self._pmaps)

    # -- activation ------------------------------------------------------------

    def activate(self, processor: int) -> None:
        self.active_mask |= 1 << processor

    def deactivate(self, processor: int) -> None:
        self.active_mask &= ~(1 << processor)

    # -- message queue -----------------------------------------------------------

    def post_message(self, message: CmapMessage) -> None:
        if message.target_mask:
            self.messages.append(message)
            self.messages_posted += 1

    def pending_for(self, processor: int) -> list[CmapMessage]:
        bit = 1 << processor
        return [m for m in self.messages if m.target_mask & bit]

    def acknowledge(self, message: CmapMessage, processor: int) -> None:
        """Clear a processor's bit; retire the message when mask is zero."""
        message.target_mask &= ~(1 << processor)
        self.messages_applied += 1
        if message.target_mask == 0:
            self.messages.remove(message)
