"""Memory allocation zones (paper section 6).

"A run-time library for defining disjoint memory allocation zones and for
specifying page-aligned allocation helps PLATINUM programmers [separate]
data with different access patterns ... with a minimum of effort."

An :class:`Arena` is such a zone: one memory object bound into an address
space, with a bump allocator that can hand out word- or page-aligned
ranges.  Programs allocate read-only data, per-thread private data, shared
coarse-grain data, and synchronization words from *separate* arenas so the
replication policy can treat each page appropriately -- or deliberately
co-locate them in one arena to reproduce the paper's false-sharing
anecdote.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..kernel.kernel import Kernel
from ..kernel.vm import AddressSpace, MemoryObject
from ..machine.pmap import Rights


class ArenaFullError(MemoryError):
    """An arena has no room for the requested allocation."""


class Arena:
    """A disjoint allocation zone backed by one memory object."""

    def __init__(
        self,
        kernel: Kernel,
        aspace: AddressSpace,
        vpage_base: int,
        n_pages: int,
        label: str = "",
        rights: Rights = Rights.WRITE,
        backing: Optional[np.ndarray] = None,
        placement=None,
    ) -> None:
        self.kernel = kernel
        self.aspace = aspace
        self.vpage_base = vpage_base
        self.n_pages = n_pages
        self.label = label
        self.obj: MemoryObject = kernel.vm.create_object(
            n_pages, backing=backing, label=label, placement=placement
        )
        kernel.vm.bind(aspace, vpage_base, self.obj, rights=rights)
        self._next = 0  # next free word offset within the arena
        self.words_per_page = kernel.params.words_per_page

    def __repr__(self) -> str:
        return (
            f"<Arena {self.label!r} vpages [{self.vpage_base}, "
            f"{self.vpage_base + self.n_pages}) used {self._next}/"
            f"{self.n_words} words>"
        )

    @property
    def base_va(self) -> int:
        """Word address of the arena's first word."""
        return self.vpage_base * self.words_per_page

    @property
    def n_words(self) -> int:
        return self.n_pages * self.words_per_page

    @property
    def words_free(self) -> int:
        return self.n_words - self._next

    def alloc(self, n_words: int, page_aligned: bool = False) -> int:
        """Allocate ``n_words``; returns the word address.

        ``page_aligned`` starts the allocation on a fresh page boundary,
        the paper's recommended style for separating access patterns.
        """
        if n_words < 1:
            raise ValueError(f"allocation of {n_words} words")
        if page_aligned:
            rem = self._next % self.words_per_page
            if rem:
                self._next += self.words_per_page - rem
        if self._next + n_words > self.n_words:
            raise ArenaFullError(
                f"arena {self.label!r}: need {n_words} words, "
                f"{self.words_free} free"
            )
        va = self.base_va + self._next
        self._next += n_words
        return va

    def vpage_of(self, va: int) -> int:
        """The virtual page containing a word address in this arena."""
        if not self.base_va <= va < self.base_va + self.n_words:
            raise ValueError(f"va {va} outside {self!r}")
        return va // self.words_per_page

    def cpage_of(self, va: int):
        """The coherent page backing a word address (for instrumentation)."""
        vpage = self.vpage_of(va)
        return self.obj.cpages[vpage - self.vpage_base]
