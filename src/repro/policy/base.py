"""The replication-policy interface (paper section 4.2).

On every coherent-memory fault with no local copy, a policy module
chooses between *caching* the page locally (replication on a read miss,
migration on a write miss) and creating a *remote mapping* to an
existing copy -- effectively disabling caching for that page.

This module is the single interface every policy in the zoo implements:
:class:`ReplicationPolicy` owns the frozen-page list and exposes the
``decide`` hook the fault handler calls, plus two *observation* hooks the
kernel paths feed so online policies can learn from protocol history:

* :meth:`ReplicationPolicy.note_invalidation` -- called by the fault
  handler whenever a protocol invalidation collapses a page's copies
  (the same event that stamps ``cpage.last_invalidation``);
* :meth:`ReplicationPolicy.should_thaw` -- consulted by the defrost
  daemon before thawing each frozen page, letting a policy keep a page
  frozen past the global ``t2`` period.

Both hooks are no-ops in the base class, so the fixed policies behave
bit-identically to the pre-zoo engine (proven by the pinned rows of
the equivalence plan, ``tests/test_matrix.py``).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import NamedTuple

from ..core.cpage import Cpage


class Action(enum.Enum):
    """What to do about a miss with no local copy."""

    #: make a local copy (replicate on read, migrate on write)
    CACHE = "cache"
    #: map an existing copy for remote access
    REMOTE_MAP = "remote_map"


class FaultContext(NamedTuple):
    """Inputs to a policy decision (immutable; one is built per
    policy-consulted fault, so it is a tuple, not a frozen dataclass)."""

    cpage: Cpage
    processor: int
    now: int
    write: bool


class ReplicationPolicy(ABC):
    """Decides between caching and remote mapping; owns the frozen list."""

    name = "abstract"

    def __init__(self) -> None:
        self._frozen: list[Cpage] = []

    @abstractmethod
    def decide(self, ctx: FaultContext) -> Action:
        """Choose the action for a miss with no local copy."""

    # -- protocol observation hooks -------------------------------------------

    def note_invalidation(self, cpage: Cpage, now: int) -> None:
        """A protocol invalidation collapsed ``cpage``'s copies at
        ``now``.  Called by the fault handler right after it stamps
        ``cpage.last_invalidation``; adaptive policies use the interval
        stream, the base class ignores it."""

    def should_thaw(self, cpage: Cpage, now: int) -> bool:
        """May the defrost daemon thaw this frozen page now?  The base
        class always says yes -- the paper's fixed ``t2`` behaviour."""
        return True

    # -- freeze bookkeeping ---------------------------------------------------

    @property
    def frozen_pages(self) -> list[Cpage]:
        return list(self._frozen)

    def freeze(self, cpage: Cpage, now: int) -> None:
        """Freeze a page: all new mappings go to its single copy."""
        if cpage.frozen:
            return
        if cpage.n_copies != 1:
            raise ValueError(
                f"cannot freeze {cpage!r}: it has {cpage.n_copies} copies"
            )
        cpage.frozen = True
        cpage.frozen_at = now
        cpage.stats.freezes += 1
        self._frozen.append(cpage)

    def thaw(self, cpage: Cpage, now: int) -> None:
        """Un-freeze a page (defrost daemon or thaw-on-fault variant)."""
        if not cpage.frozen:
            return
        cpage.frozen = False
        cpage.frozen_at = None
        cpage.stats.thaws += 1
        self._frozen.remove(cpage)
