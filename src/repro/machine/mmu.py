"""Per-processor memory management unit: address translation cache + Pmaps.

Models the MC68851's role in the protocol (paper section 2.1): access rights
in the hardware translations are *potentially more restrictive* than what
the virtual memory layer granted, so that accesses needing protocol action
trap.  A translation lookup goes:

    ATC hit                    -> free
    ATC miss, Pmap entry valid -> small table-walk cost, entry cached
    Pmap miss / rights miss    -> translation fault (the caller invokes the
                                  coherent-memory fault handler)

The ATC is a small LRU cache keyed by (address space, virtual page), like
the 64-entry MC68851 ATC.  Shootdowns flush ATC entries on the target
processors; because each processor also has a *private Pmap* per address
space, PLATINUM never needs Mach's stall-the-world shootdown (section 3.1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from .params import MachineParams
from .pmap import Pmap, PmapEntry, Rights


@dataclass(slots=True)
class TranslationResult:
    """Outcome of an MMU translation attempt."""

    entry: Optional[PmapEntry]
    cost: int
    atc_hit: bool

    @property
    def fault(self) -> bool:
        return self.entry is None


class ATC:
    """LRU address translation cache keyed by (aspace_id, vpage)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("ATC capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, int], PmapEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, aspace_id: int, vpage: int) -> Optional[PmapEntry]:
        key = (aspace_id, vpage)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def insert(self, aspace_id: int, vpage: int, entry: PmapEntry) -> None:
        key = (aspace_id, vpage)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def flush_page(self, aspace_id: int, vpage: int) -> bool:
        removed = self._entries.pop((aspace_id, vpage), None) is not None
        if removed:
            self.flushes += 1
        return removed



class MMU:
    """One processor's MMU: an ATC in front of private per-aspace Pmaps."""

    def __init__(self, processor_index: int, params: MachineParams) -> None:
        self.processor_index = processor_index
        self.params = params
        self.atc = ATC(params.atc_entries)
        self._pmaps: dict[int, Pmap] = {}
        self.faults = 0

    def __repr__(self) -> str:
        return (
            f"<MMU cpu{self.processor_index} aspaces={len(self._pmaps)} "
            f"atc={len(self.atc)}>"
        )

    def attach_pmap(self, pmap: Pmap) -> None:
        """Make an address space's private Pmap visible to this MMU."""
        if pmap.processor_index != self.processor_index:
            raise ValueError(
                f"pmap for cpu{pmap.processor_index} attached to "
                f"cpu{self.processor_index}"
            )
        self._pmaps[pmap.aspace_id] = pmap

    def pmap_for(self, aspace_id: int) -> Optional[Pmap]:
        return self._pmaps.get(aspace_id)

    def translate(
        self, aspace_id: int, vpage: int, write: bool
    ) -> TranslationResult:
        """Attempt a translation with sufficient rights.

        Faults (entry=None) carry the cost already spent discovering the
        miss; the trap overhead itself is part of the fault-handler fixed
        cost.
        """
        # ATC.lookup, flush_page and insert, in place; rights are the
        # ints 0 < 1 < 3, so "allows" is one comparison
        need = 3 if write else 1
        atc = self.atc
        cached = atc._entries
        key = (aspace_id, vpage)
        entry = cached.get(key)
        if entry is not None:
            cached.move_to_end(key)
            atc.hits += 1
            if entry.rights >= need:
                entry.referenced = True
                if write:
                    entry.modified = True
                return TranslationResult(entry, 0, True)
            # rights-restricted ATC entry: protection fault.  Flush the
            # cached descriptor so the post-fault retry reloads the
            # (upgraded) Pmap entry instead of re-faulting forever.
            del cached[key]
            atc.flushes += 1
            self.faults += 1
            return TranslationResult(None, 0, True)
        atc.misses += 1
        pmap = self._pmaps.get(aspace_id)
        entry = pmap._entries.get(vpage) if pmap is not None else None
        cost = self.params.atc_miss_cost
        if entry is None or entry.rights < need:
            self.faults += 1
            return TranslationResult(None, cost, False)
        entry.referenced = True
        if write:
            entry.modified = True
        cached[key] = entry
        while len(cached) > atc.capacity:
            cached.popitem(last=False)
        return TranslationResult(entry, cost, False)

    # -- shootdown support --------------------------------------------------

    def invalidate_page(self, aspace_id: int, vpage: int) -> None:
        """Flush the ATC entry and the private Pmap entry for a page."""
        self.atc.flush_page(aspace_id, vpage)
        pmap = self._pmaps.get(aspace_id)
        if pmap is not None:
            pmap.remove(vpage)

    def restrict_page(
        self, aspace_id: int, vpage: int, rights: Rights
    ) -> None:
        """Reduce rights on a page's translation (flushing the ATC copy)."""
        self.atc.flush_page(aspace_id, vpage)
        pmap = self._pmaps.get(aspace_id)
        if pmap is not None:
            pmap.restrict(vpage, rights)
