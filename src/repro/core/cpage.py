"""Coherent pages (Cpages): states, directories and the Cpage table.

A Cpage is the unit the coherency protocol manages (paper section 2.3).
Each Cpage records:

* its protocol state (Figure 4): ``empty``, ``present1``, ``present+`` or
  ``modified``;
* a *directory* of the physical frames backing it -- a bit mask of memory
  modules plus the frame list;
* whether any virtual-to-physical translation currently allows writing;
* the time of the most recent invalidation by the coherency protocol (the
  replication policy's entire history, section 4.2);
* whether the replication policy has frozen it;
* the set of (address space, vpage) bindings mapping it, so
  protocol-driven mapping changes can reach every address space that
  maps the page (section 3.1);
* instrumentation counters for the kernel's post-mortem report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..machine.memory import Frame


class CpageState(enum.Enum):
    """The four protocol states of Figure 4."""

    EMPTY = "empty"
    PRESENT1 = "present1"
    PRESENT_PLUS = "present+"
    MODIFIED = "modified"


# bound once for the per-fault recompute_state (DESIGN.md section 5)
_EMPTY, _PRESENT1, _PRESENT_PLUS, _MODIFIED = CpageState


class CoherencyError(RuntimeError):
    """An internal protocol invariant was violated."""


@dataclass
class CpageStats:
    """Per-Cpage instrumentation (paper section 4.2: the kernel produces a
    detailed report including fault counts, fault-handler contention, and
    whether the page was frozen)."""

    faults: int = 0
    read_faults: int = 0
    write_faults: int = 0
    replications: int = 0
    migrations: int = 0
    invalidations: int = 0
    restrictions: int = 0
    remote_mappings: int = 0
    local_mappings: int = 0
    upgrades: int = 0
    freezes: int = 0
    thaws: int = 0
    handler_wait_ns: int = 0
    handler_busy_ns: int = 0
    #: words accessed through remote mappings (the 'hardware reference
    #: count' of section 8, kept by its MigrationDaemon only)
    remote_access_words: int = 0


class Cpage:
    """One coherent page and its directory."""

    def __init__(
        self,
        index: int,
        home_module: int,
        backing: Optional[np.ndarray] = None,
        label: str = "",
    ) -> None:
        #: position in the Cpage table (globally unique)
        self.index = index
        #: module whose memory holds this Cpage's kernel metadata; faults
        #: handled on another node pay the remote fixed overhead
        self.home_module = home_module
        #: optional initial contents, installed on the first allocation
        self.backing = backing
        #: human-readable tag for reports ("matrix[3]", "locks", ...)
        self.label = label

        self.state = CpageState.EMPTY
        #: fixed module for the first-touch allocation, or None for
        #: allocate-at-the-faulting-node.  Used by the static-placement
        #: baselines (Uniform System interleaves data across modules).
        self.placement_module: Optional[int] = None
        #: directory: module index -> backing frame
        self.frames: dict[int, Frame] = {}
        self.has_write_mapping = False
        #: time (ns) of the most recent protocol invalidation, or None
        self.last_invalidation: Optional[int] = None
        self.frozen = False
        self.frozen_at: Optional[int] = None
        #: frozen pages the defrost daemon must leave alone (the kernel's
        #: own writable pages are permanently frozen, section 2.2)
        self.thaw_exempt = False
        #: (aspace_id, vpage) pairs binding this Cpage into address
        #: spaces: ids, not Cmaps, whose entries point back here
        self.bindings: list[tuple[int, int]] = []
        #: serialization point of the fault handler for this page; modelled
        #: as a busy-until clock (see core.fault)
        self.handler_busy_until: int = 0
        self.stats = CpageStats()

    def __repr__(self) -> str:
        mods = sorted(self.frames)
        froz = " frozen" if self.frozen else ""
        return (
            f"<Cpage {self.index} {self.state.value} "
            f"copies={mods}{froz} {self.label!r}>"
        )

    # -- directory ----------------------------------------------------------

    @property
    def n_copies(self) -> int:
        return len(self.frames)

    def any_frame(self) -> Frame:
        """A deterministic representative copy (lowest module index)."""
        if not self.frames:
            raise CoherencyError(f"{self!r} has no physical copies")
        return self.frames[min(self.frames)]

    def sole_frame(self) -> Frame:
        """The single copy; raises if the page is replicated or empty."""
        if len(self.frames) != 1:
            raise CoherencyError(
                f"{self!r}: expected exactly one copy, have {len(self.frames)}"
            )
        return next(iter(self.frames.values()))

    def add_frame(self, frame: Frame) -> None:
        if frame.module_index in self.frames:
            raise CoherencyError(
                f"{self!r} already has a copy on module {frame.module_index}"
            )
        self.frames[frame.module_index] = frame

    def drop_frame(self, module: int) -> Frame:
        frame = self.frames.pop(module, None)
        if frame is None:
            raise CoherencyError(f"{self!r} has no copy on module {module}")
        return frame

    # -- state bookkeeping ---------------------------------------------------

    def recompute_state(self) -> None:
        """Derive the protocol state from the directory and write flag."""
        n = len(self.frames)
        if n == 0:
            self.state = _EMPTY
            if self.has_write_mapping:
                raise CoherencyError(f"{self!r}: write mapping with no copy")
        elif n == 1:
            self.state = _MODIFIED if self.has_write_mapping else _PRESENT1
        else:
            if self.has_write_mapping:
                raise CoherencyError(
                    f"{self!r}: write mapping while replicated"
                )
            self.state = _PRESENT_PLUS


class CpageTable:
    """The list of all coherent pages in the system (paper section 2.3)."""

    def __init__(self, n_modules: int) -> None:
        self.n_modules = n_modules
        self._pages: list[Cpage] = []

    def __len__(self) -> int:
        return len(self._pages)

    def __iter__(self) -> Iterator[Cpage]:
        return iter(self._pages)

    def get(self, index: int) -> Cpage:
        return self._pages[index]

    def create(
        self,
        backing: Optional[np.ndarray] = None,
        label: str = "",
        home_module: Optional[int] = None,
    ) -> Cpage:
        index = len(self._pages)
        if home_module is None:
            # distribute Cpage metadata round-robin across modules, like
            # the decentralized kernel data structures of section 2.2
            home_module = index % self.n_modules
        page = Cpage(index, home_module, backing=backing, label=label)
        self._pages.append(page)
        return page
