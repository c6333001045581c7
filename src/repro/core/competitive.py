"""Competitive / reference-count-driven page placement (paper section 8).

The paper's related work proposes placement driven by per-page remote
reference counts: competitively optimal migration (Black, Gupta and
Weber), mesh-migration simulations (Scheurich and DuBois), and
migration daemons using reference history (Holliday).  All of them need
hardware reference counts or a software simulation of them -- which the
paper argues is not worth the cost next to a simple, low-overhead policy
plus reducing fine-grain write-sharing.

To let the repository test that argument, this module implements the
comparator: a :class:`MigrationDaemon` that periodically inspects each
page's remote-access counters (collected when
``CoherentMemorySystem.reference_counting`` is on) and, once a page has
accumulated remote traffic worth more than a migration (the competitive
break-even), invalidates its mappings so the next faulting processor
re-places it.  ``competitive_kernel`` assembles the whole configuration.

The break-even threshold follows the classic competitive argument: move
the page after the *extra* cost of remote access since the last move
exceeds the cost of moving it, which bounds the total cost at twice the
offline optimum.
"""

from __future__ import annotations

from typing import Optional

from ..machine.params import MachineParams
from .coherent_memory import CoherentMemorySystem
from .cpage import Cpage
from ..policy.base import Action, FaultContext, ReplicationPolicy

#: bound once: an Enum-class member load is dear (DESIGN.md section 5)
_CACHE, _REMOTE_MAP = Action.CACHE, Action.REMOTE_MAP


class CompetitivePolicy(ReplicationPolicy):
    """The fault-side half of competitive placement.

    Pages are kept in a single copy and accessed remotely (as the
    section 8 schemes do for writable data) *until* the migration
    daemon decides a processor has paid the break-even cost; the daemon
    then leaves a move hint and invalidates the mappings, and this
    policy caches the page on the hinted processor's next fault.
    """

    name = "competitive"

    def __init__(self) -> None:
        super().__init__()
        #: cpage index -> processor the daemon wants the page moved to
        self.move_hints: dict[int, int] = {}

    def decide(self, ctx: FaultContext) -> Action:
        hint = self.move_hints.get(ctx.cpage.index)
        if hint == ctx.processor:
            del self.move_hints[ctx.cpage.index]
            return _CACHE
        return _REMOTE_MAP


def break_even_words(p: MachineParams) -> int:
    """Remote words whose extra latency equals one page migration."""
    migrate_cost = (
        p.page_copy_time + p.fault_fixed_remote + p.shootdown_first
        + p.page_free
    )
    per_word_saving = p.t_remote_read - p.t_local
    return max(1, round(migrate_cost / per_word_saving))


class MigrationDaemon:
    """Periodically re-places pages with heavy remote traffic.

    This is the software simulation of reference counting the paper's
    section 8 deems "not cheap": every remote access increments a
    counter (``CoherentMemorySystem.note_remote_access``), and the
    daemon's sweep turns hot counters into forced re-placement faults.
    """

    def __init__(
        self,
        coherent: CoherentMemorySystem,
        period: float = 100e6,
        threshold_words: Optional[int] = None,
    ) -> None:
        self.coherent = coherent
        self.machine = coherent.machine
        self.period = period
        self.threshold_words = (
            threshold_words
            if threshold_words is not None
            else break_even_words(coherent.machine.params)
        )
        self.runs = 0
        self.pages_replaced = 0
        self._scheduled = False

    def start(self) -> None:
        if self._scheduled:
            return
        self._scheduled = True
        self.coherent.reference_counting = True
        self.machine.engine.schedule(self.period, self._tick)

    def _tick(self) -> None:
        self.run_once()
        self.machine.engine.schedule(self.period, self._tick)

    def run_once(self) -> int:
        """Sweep the counters; re-place pages past break-even."""
        self.runs += 1
        replaced = 0
        now = self.machine.engine.now
        for cpage in self.coherent.cpages:
            total = sum(cpage.remote_counts.values())
            if total < self.threshold_words:
                continue
            if cpage.n_copies == 0:
                continue
            self._replace(cpage, now)
            replaced += 1
        self.pages_replaced += replaced
        return replaced

    def _replace(self, cpage: Cpage, now: int) -> None:
        """Invalidate all mappings so the next fault re-places the page
        at (one of) its heavy users."""
        self.coherent.defrost.invalidate_mappings(cpage, now)
        # tell a cooperating policy who to move the page to
        heaviest = max(
            cpage.remote_counts, key=lambda proc: cpage.remote_counts[proc]
        )
        policy = self.coherent.policy
        if hasattr(policy, "move_hints"):
            policy.move_hints[cpage.index] = heaviest
        cpage.remote_counts.clear()
        if cpage.frozen:
            policy.thaw(cpage, now)


def attach_migration_daemon(
    kernel,
    period: float = 100e6,
    threshold_words: Optional[int] = None,
) -> MigrationDaemon:
    """Attach and start a migration daemon on an existing kernel.

    The daemon only invalidates mappings; whether the subsequent fault
    actually moves the page is the fault policy's decision, so pair it
    with a caching policy (e.g. AlwaysReplicatePolicy) for the full
    competitive-placement configuration -- see ``competitive_kernel``.
    """
    daemon = MigrationDaemon(
        kernel.coherent, period=period, threshold_words=threshold_words
    )
    daemon.start()
    return daemon


def competitive_kernel(
    n_processors: int = 16,
    period: float = 100e6,
    threshold_words: Optional[int] = None,
    **param_overrides,
):
    """A kernel configured as the section 8 comparator: reference
    counting on, a migration daemon sweeping past-break-even pages, and
    the cooperating :class:`CompetitivePolicy` so re-placement faults
    move the data to the heaviest user.  Returns ``(kernel, daemon)``."""
    from ..runtime.run import make_kernel  # local: avoids an import cycle

    kernel = make_kernel(
        n_processors=n_processors,
        policy=CompetitivePolicy(),
        defrost_enabled=False,
        **param_overrides,
    )
    daemon = attach_migration_daemon(
        kernel, period=period, threshold_words=threshold_words
    )
    return kernel, daemon
