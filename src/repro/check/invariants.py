"""Runtime checking of the global coherence invariants.

The protocol's correctness argument (paper sections 2.3 and 3) rests on
a handful of whole-system invariants that hold between protocol actions:

* **single-writer** -- a Cpage in the ``modified`` state has exactly one
  physical copy, a write mapping exists only in that state, and all
  replicas of a ``present+`` page are byte-identical (Figure 3's
  directory/state agreement).
* **translation-copyset** -- every hardware translation points at a frame
  recorded in its Cpage's directory, and is covered by the Cmap entry's
  reference mask (the mask is what bounds shootdown targets, section
  3.1; a translation outside it would survive invalidation).
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

:class:`InvariantChecker` verifies all of these against a live
:class:`~repro.core.coherent_memory.CoherentMemorySystem`.  Installed via
:func:`install_invariant_checker` it joins the system's observer list
(``CoherentMemorySystem.observers``, see ``repro.core.trace``) and runs
one full check after *every* completed protocol action (fault,
shootdown, Cmap-queue application, thaw, defrost run), so a corruption
is caught at the action that introduced it, not at the end of the run.
It skips the two points where the directory is not consistent: a block
transfer (mid-fault) and a fault that raised.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

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
    """Checks every global coherence invariant on demand.

    Also a protocol observer (``repro.core.trace.Observers``): each
    completed action is one full check.  ``raise_on_violation=False``
    turns it into a collector: violations accumulate in ``violations``
    instead of raising, which the CLI uses to report everything at once.
    """

    def __init__(
        self,
        system: "CoherentMemorySystem",
        raise_on_violation: bool = True,
    ) -> None:
        self.system = system
        self.raise_on_violation = raise_on_violation
        #: number of full invariant sweeps performed
        self.checks = 0
        #: every violation string ever seen (non-raising mode)
        self.violations: List[str] = []

    def check(self) -> List[str]:
        """Run every invariant; returns (and records) the violations."""
        self.checks += 1
        problems: List[str] = []
        report = problems.append
        self._inv_single_writer(report)
        self._inv_translation_copyset(report)
        self._inv_frame_ownership(report)
        self._inv_pmap_state(report)
        self._inv_frozen_pages(report)
        self._inv_defrost_queue(report)
        self._inv_message_queue(report)
        if problems:
            self.violations.extend(problems)
            if self.raise_on_violation:
                raise InvariantViolation(problems)
        return problems

    # -- individual invariants ----------------------------------------------

    def _inv_single_writer(self, report: Callable[[str], None]) -> None:
        """Directory/state agreement per Cpage, including at most one
        ``modified`` copy and byte-equality of replicas (Figure 3)."""
        for cpage in self.system.cpages:
            try:
                cpage.check_invariants()
            except CoherencyError as exc:
                report(f"single-writer: {exc}")

    def _inv_translation_copyset(
        self, report: Callable[[str], None]
    ) -> None:
        """Every live translation is in the copyset and covered by the
        reference mask (section 3.1: the mask bounds shootdowns)."""
        try:
            self.system._check_reference_masks()
        except CoherencyError as exc:
            report(f"translation-copyset: {exc}")

    def _inv_frame_ownership(self, report: Callable[[str], None]) -> None:
        """Directory frames are registered to their Cpage in the owning
        module's inverted page table (section 3.3's local probe)."""
        try:
            self.system._check_frames_registered()
        except CoherencyError as exc:
            report(f"frame-ownership: {exc}")

    def _inv_pmap_state(self, report: Callable[[str], None]) -> None:
        """Pmap entries agree with protocol state: write rights imply
        ``modified``; no translation maps an ``empty`` page.

        Translations with a pending (deferred) Cmap message are stale by
        design until the owner reactivates the address space, and are
        skipped -- the same allowance the reference-mask check makes.
        """
        for cmap in self.system.cmaps.values():
            for proc, pmap in cmap.pmaps().items():
                pending = {m.vpage for m in cmap.pending_for(proc)}
                for pentry in pmap.entries():
                    if pentry.vpage in pending:
                        continue
                    entry = cmap.entries.get(pentry.vpage)
                    if entry is None:
                        continue  # translation-copyset reports this
                    cpage = entry.cpage
                    if cpage.state is CpageState.EMPTY:
                        report(
                            f"pmap-state: cpu{proc} maps {cpage!r} "
                            "which is empty"
                        )
                    if (
                        pentry.rights.allows(True)
                        and cpage.state is not CpageState.MODIFIED
                    ):
                        report(
                            f"pmap-state: cpu{proc} holds a write "
                            f"translation for {cpage!r} in state "
                            f"{cpage.state.value}"
                        )

    def _inv_frozen_pages(self, report: Callable[[str], None]) -> None:
        """Frozen pages have exactly one copy and are never replicated:
        freezing disables caching for the page (section 4.2)."""
        for cpage in self.system.cpages:
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
        queued = {id(c): c for c in self.system.policy.frozen_pages}
        for cpage in queued.values():
            if not cpage.frozen:
                report(
                    f"defrost-queue: {cpage!r} queued for defrost "
                    "but not frozen"
                )
        for cpage in self.system.cpages:
            if cpage.frozen and id(cpage) not in queued:
                report(
                    f"defrost-queue: {cpage!r} is frozen but missing "
                    "from the defrost queue"
                )

    def _inv_message_queue(self, report: Callable[[str], None]) -> None:
        """Queued Cmap messages have live targets within the machine."""
        n = self.system.machine.params.n_processors
        full_mask = (1 << n) - 1
        for cmap in self.system.cmaps.values():
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

    # -- installation ---------------------------------------------------------

    def install(self) -> "InvariantChecker":
        """Check after every protocol action of the system."""
        self.system.observers.append(self)
        return self

    def uninstall(self) -> None:
        if self in self.system.observers:
            self.system.observers.remove(self)


def install_invariant_checker(
    system: "CoherentMemorySystem", raise_on_violation: bool = True
) -> InvariantChecker:
    """Install (idempotently) an invariant checker as a protocol
    observer.

    Returns the installed checker; repeated calls on the same system
    return the existing one rather than double-checking every action.
    """
    existing = getattr(system, "_invariant_checker", None)
    if existing is not None:
        return existing
    checker = InvariantChecker(
        system, raise_on_violation=raise_on_violation
    ).install()
    system._invariant_checker = checker
    return checker
