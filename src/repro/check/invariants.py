"""Runtime checking of the global coherence invariants.

The protocol's correctness argument (paper sections 2.3 and 3) rests on
a handful of whole-system invariants that hold between protocol actions:

* **single-writer** -- a Cpage in the ``modified`` state has exactly one
  physical copy, a write mapping exists only in that state, and all
  replicas of a ``present+`` page are byte-identical (Figure 3's
  directory/state agreement).
* **translation-copyset** -- every hardware translation maps a vpage
  with a Cmap entry, points at a frame recorded in its Cpage's
  directory, and is covered by the Cmap entry's reference mask (the
  mask is what bounds shootdown targets, section 3.1; a translation
  outside it would survive invalidation).
* **frame-ownership** -- every directory frame is allocated to that Cpage
  in the owning module's inverted page table (the handler's
  local-copy probe of section 3.3 depends on this agreement).
* **pmap-state** -- Pmap entries are consistent with the Cpage state: a
  write-rights translation implies the ``modified`` state, and no
  translation maps an ``empty`` page.
* **frozen-pages** -- a frozen page has exactly one copy and is never
  ``present+``: freezing exists precisely to stop replication
  (section 4.2), so a frozen page with replicas means the policy and
  the protocol disagree.
* **defrost-queue** -- the defrost daemon's work list (the policy's
  frozen list) holds exactly the frozen pages: a stale entry would make
  the daemon thaw a live replicated page; a missing one would freeze a
  page forever.
* **message-queue** -- pending Cmap messages always name at least one
  processor still to apply them (retired messages must leave the queue,
  or activation would re-apply stale directives).

This module is the one statement of them.  :class:`InvariantChecker`
checks all seven against a live
:class:`~repro.core.coherent_memory.CoherentMemorySystem` and raises
:class:`InvariantViolation` listing every failure.  It runs in two
places, with the same code:

* at the end of every run: ``Kernel.check_invariants()``, which
  ``run_program``, ``record_program`` and ``replay_trace`` call, is one
  full check;
* after every protocol action: :func:`install_invariant_checker` puts a
  checker on the system's observer list
  (``CoherentMemorySystem.observers``, see ``repro.core.trace``), so a
  corruption is caught at the action that introduced it (fault,
  shootdown, Cmap-queue application, thaw, defrost run).  It skips the
  two points where the directory is not consistent: a block transfer
  (mid-fault) and a fault that raised.

A translation whose vpage has a pending Cmap message for its processor
is exempt from both translation invariants, *before* anything else is
looked up: it is stale by design until the owner reactivates the
address space and applies the message, which may remove it -- as an
unmap of an address space active nowhere does, after it has removed
the Cmap entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

import numpy as np

from ..core.cpage import CoherencyError, CpageState
from ..machine.pmap import Rights

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..core.coherent_memory import CoherentMemorySystem


class InvariantViolation(CoherencyError):
    """One or more global coherence invariants failed.

    ``violations`` lists every failure found in the offending check, each
    prefixed with the invariant's name.
    """

    def __init__(self, violations: List[str]) -> None:
        self.violations = list(violations)
        summary = "; ".join(self.violations[:3])
        more = len(self.violations) - 3
        if more > 0:
            summary += f" (+{more} more)"
        super().__init__(
            f"{len(self.violations)} invariant violation(s): {summary}"
        )


class InvariantChecker:
    """Checks every global coherence invariant of one system.

    :meth:`check` is the one check; it counts itself in ``checks``.  The
    six observer methods (``repro.core.trace.Observers``) make a checker
    on the observer list run it after each completed action.
    """

    def __init__(self, system: "CoherentMemorySystem") -> None:
        # what it reads, not the system: that owns the list it may join
        self.cpages, self.cmaps = system.cpages, system.cmaps
        self.machine, self.policy = system.machine, system.policy
        #: number of full invariant sweeps performed
        self.checks = 0

    def check(self) -> None:
        """Run every invariant; raise :class:`InvariantViolation` listing
        every failure."""
        self.checks += 1
        problems: List[str] = []
        report = problems.append
        self._inv_single_writer(report)
        self._inv_translations(report)
        self._inv_frame_ownership(report)
        self._inv_frozen_pages(report)
        self._inv_defrost_queue(report)
        self._inv_message_queue(report)
        if problems:
            raise InvariantViolation(problems)

    # -- individual invariants ----------------------------------------------

    def _inv_single_writer(self, report: Callable[[str], None]) -> None:
        """Directory/state agreement per Cpage, including at most one
        ``modified`` copy and byte-equality of replicas (Figure 3)."""
        for cpage in self.cpages:
            frames = cpage.frames
            n = len(frames)
            state = cpage.state
            if state is CpageState.EMPTY and n != 0:
                report(f"single-writer: {cpage!r}: empty but has {n} copies")
            elif state is CpageState.PRESENT1 and n != 1:
                report(f"single-writer: {cpage!r}: present1 with {n} copies")
            elif state is CpageState.PRESENT_PLUS and n < 2:
                report(f"single-writer: {cpage!r}: present+ with {n} copies")
            elif state is CpageState.MODIFIED and n != 1:
                report(f"single-writer: {cpage!r}: modified with {n} copies")
            if cpage.has_write_mapping and state is not CpageState.MODIFIED:
                report(
                    f"single-writer: {cpage!r}: write mapping in state "
                    f"{state.value}"
                )
            for module, frame in frames.items():
                if frame.module_index != module:
                    report(
                        f"single-writer: {cpage!r}: directory slot "
                        f"{module} holds {frame!r}"
                    )
                if not frame.allocated:
                    report(
                        f"single-writer: {cpage!r}: directory holds free "
                        "frame"
                    )
            if n >= 2:  # all readable copies must be byte-identical
                copies = list(frames.values())
                first = copies[0]
                for other in copies[1:]:
                    if not np.array_equal(first.data, other.data):
                        report(
                            f"single-writer: {cpage!r}: replicas differ "
                            f"between modules {first.module_index} and "
                            f"{other.module_index}"
                        )

    def _inv_translations(self, report: Callable[[str], None]) -> None:
        """One walk of every translation for two invariants.

        **translation-copyset**: every live translation maps a vpage
        with a Cmap entry, is covered by its reference mask (section 3.1:
        the mask bounds shootdowns) and points at a frame in its Cpage's
        directory; a write translation needs ``has_write_mapping``.
        **pmap-state**: write rights imply ``modified``; no translation
        maps an ``empty`` page.  Translations with a pending Cmap message
        are exempt first (module docstring).
        """
        for cmap in self.cmaps.values():
            entries = cmap.entries
            for proc, pmap in cmap.pmaps().items():
                bit = 1 << proc
                pending = {m.vpage for m in cmap.pending_for(proc)}
                for pentry in pmap.entries():
                    vpage = pentry.vpage
                    if vpage in pending:
                        continue
                    entry = entries.get(vpage)
                    if entry is None:
                        report(
                            f"translation-copyset: cpu{proc} maps "
                            f"unmapped vpage {vpage} in aspace "
                            f"{cmap.aspace_id}"
                        )
                        continue
                    cpage = entry.cpage
                    if not entry.ref_mask & bit:
                        report(
                            f"translation-copyset: cpu{proc} translation "
                            f"for vpage {vpage} not covered by the "
                            "reference mask"
                        )
                    frame = pentry.frame
                    if cpage.frames.get(frame.module_index) is not frame:
                        report(
                            f"translation-copyset: cpu{proc} vpage {vpage} "
                            f"maps {frame!r}, not in {cpage!r} directory"
                        )
                    write = pentry.rights == Rights.WRITE
                    if write and not cpage.has_write_mapping:
                        report(
                            f"translation-copyset: write translation for "
                            f"{cpage!r} but has_write_mapping is false"
                        )
                    state = cpage.state
                    if state is CpageState.EMPTY:
                        report(
                            f"pmap-state: cpu{proc} maps {cpage!r} "
                            "which is empty"
                        )
                    if write and state is not CpageState.MODIFIED:
                        report(
                            f"pmap-state: cpu{proc} holds a write "
                            f"translation for {cpage!r} in state "
                            f"{state.value}"
                        )

    def _inv_frame_ownership(self, report: Callable[[str], None]) -> None:
        """Directory frames are registered to their Cpage in the owning
        module's inverted page table (section 3.3's local probe)."""
        ipts = self.machine.ipts
        for cpage in self.cpages:
            for module, frame in cpage.frames.items():
                owner = ipts[module].owner_of(frame)
                if owner != cpage.index:
                    report(
                        f"frame-ownership: {frame!r} backs {cpage!r} but "
                        f"the inverted page table says cpage {owner}"
                    )
    def _inv_frozen_pages(self, report: Callable[[str], None]) -> None:
        """Frozen pages have exactly one copy and are never replicated:
        freezing disables caching for the page (section 4.2)."""
        for cpage in self.cpages:
            if not cpage.frozen:
                continue
            if cpage.n_copies != 1:
                report(
                    f"frozen-pages: {cpage!r} is frozen with "
                    f"{cpage.n_copies} copies"
                )
            if cpage.state is CpageState.PRESENT_PLUS:
                report(f"frozen-pages: {cpage!r} is frozen yet replicated")
            if cpage.frozen_at is None:
                report(f"frozen-pages: {cpage!r} frozen without timestamp")

    def _inv_defrost_queue(self, report: Callable[[str], None]) -> None:
        """The policy's frozen list holds exactly the frozen pages."""
        queued = {id(c): c for c in self.policy.frozen_pages}
        for cpage in queued.values():
            if not cpage.frozen:
                report(
                    f"defrost-queue: {cpage!r} queued for defrost "
                    "but not frozen"
                )
        for cpage in self.cpages:
            if cpage.frozen and id(cpage) not in queued:
                report(
                    f"defrost-queue: {cpage!r} is frozen but missing "
                    "from the defrost queue"
                )

    def _inv_message_queue(self, report: Callable[[str], None]) -> None:
        """Queued Cmap messages have live targets within the machine."""
        n = self.machine.params.n_processors
        full_mask = (1 << n) - 1
        for cmap in self.cmaps.values():
            for message in cmap.messages:
                if message.target_mask == 0:
                    report(
                        f"message-queue: retired message for vpage "
                        f"{message.vpage} still queued in {cmap!r}"
                    )
                elif message.target_mask & ~full_mask:
                    report(
                        f"message-queue: message for vpage {message.vpage} "
                        f"targets processors outside the machine "
                        f"(mask {message.target_mask:#x})"
                    )
                if message.rights is Rights.NONE and (
                    message.directive.value == "restrict"
                ):
                    report(
                        f"message-queue: restrict-to-NONE for vpage "
                        f"{message.vpage} should be an invalidate"
                    )

    # -- the observer methods -------------------------------------------------

    def fault(self, now, cpage, proc, write, eid, action, *rest) -> None:
        if action is not None:  # a fault that raised completed nothing
            self.check()

    def transfer(self, *args) -> None:
        pass  # mid-fault: the directory is not yet consistent

    def _after(self, *args) -> None:
        self.check()

    shootdown = apply_pending = thaw = defrost_run = _after


def install_invariant_checker(
    system: "CoherentMemorySystem",
) -> InvariantChecker:
    """Put an invariant checker on the system's observer list, so every
    completed protocol action is one full check, and return it.

    Idempotent: a checker already on the list is returned instead of
    adding a second one.
    """
    for observer in system.observers:
        if isinstance(observer, InvariantChecker):
            return observer
    checker = InvariantChecker(system)
    system.observers.append(checker)
    return checker
