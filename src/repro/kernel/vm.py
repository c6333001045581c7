"""The virtual memory layer (paper sections 1.1 and 2.1).

Modelled on the machine-independent half of Mach memory management, as in
the paper: *memory objects* are ordered lists of pages with global names;
an *address space* is a list of bindings of memory-object page ranges to
page-aligned virtual ranges, with per-binding access rights.  Neither the
virtual range nor the rights need be the same in every address space, so a
memory object is the unit of sharing between address spaces.

The coherent memory system caches the composition of the
virtual-to-object and object-to-Cpage mappings in its Cmaps; this layer
populates those Cmap entries lazily, on the first fault that reaches a
page (``AddressSpaces.resolve``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..core.cmap import Directive
from ..core.coherent_memory import CoherentMemorySystem
from ..core.cpage import Cpage
from ..machine.pmap import Rights


class AddressError(RuntimeError):
    """An access touched a virtual page with no binding."""


@dataclass(eq=False)
class MemoryObject:
    """An ordered list of coherent pages with a global name."""

    oid: int
    label: str
    cpages: list[Cpage]

    @property
    def n_pages(self) -> int:
        return len(self.cpages)

    def __repr__(self) -> str:
        return f"<MemoryObject {self.oid} {self.label!r} {self.n_pages}p>"


@dataclass(eq=False)
class Binding:
    """One page-aligned mapping of an object range into an address space."""

    vpage_start: int
    n_pages: int
    obj: MemoryObject
    obj_page_start: int
    rights: Rights

    def covers(self, vpage: int) -> bool:
        return self.vpage_start <= vpage < self.vpage_start + self.n_pages

    def cpage_for(self, vpage: int) -> Cpage:
        return self.obj.cpages[self.obj_page_start + vpage - self.vpage_start]

    @property
    def vpage_end(self) -> int:
        return self.vpage_start + self.n_pages


@dataclass(eq=False)
class AddressSpace:
    """A list of bindings defining a thread execution environment."""

    asid: int
    bindings: list[Binding] = field(default_factory=list)

    def find_binding(self, vpage: int) -> Optional[Binding]:
        for binding in self.bindings:
            if binding.covers(vpage):
                return binding
        return None

    def overlaps(self, vpage_start: int, n_pages: int) -> bool:
        end = vpage_start + n_pages
        return any(
            b.vpage_start < end and vpage_start < b.vpage_end
            for b in self.bindings
        )


class AddressSpaces(dict):
    """The address spaces by id, and the VM fault path the coherent
    fault handler calls on a Cmap miss: it holds nothing of the coherent
    layer, so the handler can hold it (DESIGN.md section 2)."""

    def resolve(self, aspace_id: int, vpage: int) -> tuple[Cpage, Rights]:
        """The Cpage and rights a faulting virtual page is bound to."""
        aspace = self.get(aspace_id)
        if aspace is None:
            raise AddressError(f"unknown address space {aspace_id}")
        binding = aspace.find_binding(vpage)
        if binding is None:
            raise AddressError(
                f"aspace {aspace_id}: virtual page {vpage} is not bound "
                "(wild access)"
            )
        return binding.cpage_for(vpage), binding.rights


class VirtualMemorySystem:
    """Manages memory objects, address spaces and their bindings."""

    def __init__(self, coherent: CoherentMemorySystem) -> None:
        self.coherent = coherent
        self.objects: dict[int, MemoryObject] = {}
        self.aspaces = AddressSpaces()
        self._next_oid = 0
        self._next_asid = 0

    # -- objects ---------------------------------------------------------------

    def create_object(
        self,
        n_pages: int,
        backing: Optional[np.ndarray] = None,
        label: str = "",
        placement: Union[None, str, int] = None,
    ) -> MemoryObject:
        """Create a memory object of ``n_pages`` coherent pages.

        ``backing``, if given, provides the initial word contents; it is
        split page-by-page and installed when each Cpage is first touched.

        ``placement`` controls where each page's first physical copy is
        allocated: None for first-touch (PLATINUM's behaviour), the string
        ``"interleave"`` for round-robin across modules (the Uniform
        System's scatter placement), or a module index to pin every page.
        """
        if n_pages < 1:
            raise ValueError("memory objects need at least one page")
        words = self.coherent.machine.params.words_per_page
        if backing is not None and len(backing) > n_pages * words:
            raise ValueError(
                f"backing of {len(backing)} words does not fit in "
                f"{n_pages} pages"
            )
        n_modules = self.coherent.machine.params.n_modules
        if isinstance(placement, int) and not 0 <= placement < n_modules:
            raise ValueError(f"placement module {placement} out of range")
        if isinstance(placement, str) and placement != "interleave":
            raise ValueError(f"unknown placement {placement!r}")
        cpages = []
        for i in range(n_pages):
            page_backing = None
            if backing is not None:
                chunk = backing[i * words: (i + 1) * words]
                if len(chunk):
                    page_backing = np.array(chunk, copy=True)
            cpage = self.coherent.cpages.create(
                backing=page_backing,
                label=f"{label}[{i}]" if label else "",
            )
            if placement == "interleave":
                cpage.placement_module = i % n_modules
            elif isinstance(placement, int):
                cpage.placement_module = placement
            cpages.append(cpage)
        obj = MemoryObject(self._next_oid, label, cpages)
        self._next_oid += 1
        self.objects[obj.oid] = obj
        return obj

    # -- address spaces -----------------------------------------------------------

    def create_address_space(self) -> AddressSpace:
        aspace = AddressSpace(self._next_asid)
        self._next_asid += 1
        self.aspaces[aspace.asid] = aspace
        self.coherent.cmap_for(aspace.asid, create=True)
        return aspace

    def bind(
        self,
        aspace: AddressSpace,
        vpage_start: int,
        obj: MemoryObject,
        rights: Rights = Rights.WRITE,
        obj_page_start: int = 0,
        n_pages: Optional[int] = None,
    ) -> Binding:
        """Bind a range of an object into an address space."""
        if n_pages is None:
            n_pages = obj.n_pages - obj_page_start
        if n_pages < 1 or obj_page_start + n_pages > obj.n_pages:
            raise ValueError(
                f"bad range: pages [{obj_page_start}, "
                f"{obj_page_start + n_pages}) of {obj!r}"
            )
        if aspace.overlaps(vpage_start, n_pages):
            raise ValueError(
                f"aspace {aspace.asid}: virtual pages [{vpage_start}, "
                f"{vpage_start + n_pages}) already bound"
            )
        binding = Binding(vpage_start, n_pages, obj, obj_page_start, rights)
        aspace.bindings.append(binding)
        return binding

    def unbind(
        self, aspace: AddressSpace, binding: Binding, initiator: int = 0
    ) -> None:
        """Remove a binding, shooting down all its live translations."""
        aspace.bindings.remove(binding)
        cmap = self.coherent.cmaps.get(aspace.asid)
        if cmap is None:
            return
        for vpage in range(binding.vpage_start, binding.vpage_end):
            if cmap.lookup(vpage) is not None:
                self.coherent.unmap_page(aspace.asid, vpage, initiator)

    def protect(
        self,
        aspace: AddressSpace,
        binding: Binding,
        rights: Rights,
        initiator: int = 0,
    ) -> None:
        """Change a binding's access rights (the mprotect of section 3.1).

        Relaxing rights needs no synchronization: the next access that
        wants more than the cached translation grants simply faults and
        discovers the new rights.  *Restricting* rights drives the
        shootdown mechanism, exactly like the data-coherency protocol.
        """
        old = binding.rights
        binding.rights = rights
        cmap = self.coherent.cmaps.get(aspace.asid)
        if cmap is None:
            return
        vpages = [
            v for v in range(binding.vpage_start, binding.vpage_end)
            if cmap.lookup(v) is not None
        ]
        for vpage in vpages:
            cmap.lookup(vpage).vm_rights = rights
        if rights == Rights.NONE:
            self.coherent.shootdown.shoot_vpages(
                cmap, vpages, Directive.INVALIDATE, initiator,
                self.coherent.machine.engine.now,
            )
        elif old.allows(True) and not rights.allows(True):
            # write access withdrawn; a relaxation (or no change in
            # writability) is lazy and shoots nothing down
            self.coherent.shootdown.shoot_vpages(
                cmap, vpages, Directive.RESTRICT, initiator,
                self.coherent.machine.engine.now, rights=rights,
            )
