"""Competitive placement (paper section 8): the daemon and the zoo member.

Section 8's related work places pages by per-page remote reference
counts (Black, Gupta and Weber's competitive migration, Scheurich and
DuBois, Holliday's migration daemons); the paper argues such counts are
not worth their cost next to a simple policy.  The comparator is a
:class:`MigrationDaemon` counting remote words per (Cpage, processor)
on the kernel's access hook: once a page's remote traffic is worth a
migration (:func:`break_even_words`), it invalidates the mappings and
the cooperating :class:`CompetitivePolicy` moves the page to its
heaviest user (``{"competitive": true}`` in a ``repro.point`` spec).

:class:`OnlineCompetitivePolicy` is the same argument as a pure,
fault-driven zoo member with no daemon and no counts: every
remote-mapped fault is a *rent* payment, and once the rent since the
page's last configuration change reaches the *buy* (a migration), the
faulting processor caches the page.  Per epoch the online cost is at
most ``2 * OPT + max_single_rent``, ``OPT = min(buy, total rent)``;
:func:`rent_or_buy_cost` is the decision procedure as a pure function,
so the bound is property-testable (``tests/test_core_competitive.py``).
Rent is in abstract units: a read miss pays ``rent``, a write
``write_rent`` (write-shared pages should buy later: migrating them
ping-pongs); :meth:`OnlineCompetitivePolicy.from_params` derives the
buy from the machine's break-even point.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..machine.params import MachineParams
from ..sim.engine import Daemon
from .base import Action, FaultContext, ReplicationPolicy

#: bound once: an Enum-class member load is dear (DESIGN.md section 5)
_CACHE, _REMOTE_MAP = Action.CACHE, Action.REMOTE_MAP


def break_even_words(p: MachineParams) -> int:
    """Remote words whose extra latency equals one page migration."""
    migrate_cost = (
        p.page_copy_time + p.fault_fixed_remote + p.shootdown_first
        + p.page_free
    )
    per_word_saving = p.t_remote_read - p.t_local
    return max(1, round(migrate_cost / per_word_saving))


class CompetitivePolicy(ReplicationPolicy):
    """The fault-side half of the section 8 comparator.

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


class MigrationDaemon(Daemon):
    """Periodically re-places pages with heavy remote traffic.

    The software reference counting section 8 deems "not cheap": the
    daemon holds the kernel's one access hook (``CoherentMemorySystem.
    access_probe``), and its sweep turns hot counters into forced
    re-placement faults.  Only a :class:`CompetitivePolicy` is told
    where to move the page; any other decides as it always would.
    """

    def __init__(self, coherent, period: float = 100e6,
                 threshold_words: Optional[int] = None) -> None:
        coherent.claim_access_probe(self)
        coherent.daemons.append(self)
        # what the sweep reads, not ``coherent``: that owns the daemon
        self.machine, self.cpages = coherent.machine, coherent.cpages
        self.policy, self.defrost = coherent.policy, coherent.defrost
        self.period = period
        self.threshold_words = (
            threshold_words
            if threshold_words is not None
            else break_even_words(coherent.machine.params)
        )
        #: cpage index -> {processor: remote words since the last move}
        self.counts: dict[int, dict[int, int]] = {}
        self.runs = 0
        self.pages_replaced = 0

    def note(self, cpage_index: int, proc: int, write: bool, remote: bool,
             words: int, queue_delay: int) -> None:
        """Count one batched access run (the access-hook call): remote
        words per (Cpage, processor), one update per run."""
        if remote:
            self.cpages.get(cpage_index).stats.remote_access_words += words
            counts = self.counts.get(cpage_index)
            if counts is None:
                counts = self.counts[cpage_index] = {}
            counts[proc] = counts.get(proc, 0) + words

    def run_once(self) -> int:
        """Sweep the counters; re-place pages past break-even."""
        self.runs += 1
        replaced = 0
        now = self.machine.engine.now
        for index in sorted(self.counts):
            counts = self.counts[index]
            cpage = self.cpages.get(index)
            if sum(counts.values()) < self.threshold_words \
                    or cpage.n_copies == 0:
                continue
            # invalidate every mapping: the next fault re-places the
            # page, at its heaviest user under a CompetitivePolicy
            self.defrost.invalidate_mappings(cpage, now)
            if isinstance(self.policy, CompetitivePolicy):
                self.policy.move_hints[index] = max(counts, key=counts.get)
            counts.clear()
            if cpage.frozen:
                self.policy.thaw(cpage, now)
            replaced += 1
        self.pages_replaced += replaced
        return replaced


def rent_or_buy_cost(
    rents: Sequence[float], buy: float
) -> tuple[float, float]:
    """Price one epoch of the rent-or-buy game.

    The online algorithm pays each rent charge as it arrives and buys
    (pays ``buy`` once) as soon as the accumulated rent reaches ``buy``;
    everything after the buy is free.  The offline optimum either buys
    up front or rents forever, whichever is cheaper.

    Returns ``(online_cost, offline_optimal_cost)``.  The competitive
    invariant -- ``online <= 2 * optimal + max(rents)`` -- is what the
    property suite asserts for arbitrary non-negative rent sequences.
    """
    if buy <= 0:
        raise ValueError(f"buy cost must be positive, got {buy!r}")
    total = 0.0
    online = 0.0
    bought = False
    for rent in rents:
        if rent < 0:
            raise ValueError(f"rent charges must be >= 0, got {rent!r}")
        if bought:
            break
        online += rent
        total += rent
        if total >= buy:
            online += buy
            bought = True
    optimal = min(buy, float(sum(rents)))
    return online, optimal


class OnlineCompetitivePolicy(ReplicationPolicy):
    """Per-page rent-or-buy caching decisions.

    Every policy-consulted miss on a page accrues rent; when the rent
    accumulated since the page's last epoch boundary reaches ``buy``,
    the policy answers ``CACHE`` (the faulting processor buys the page)
    and the accumulator resets.  A protocol invalidation -- some other
    processor migrated or collapsed the page -- is an epoch boundary
    too: the configuration the rent was measured against is gone.

    Pages are never frozen by this policy; bounded ping-pong *is* the
    competitive guarantee.
    """

    def __init__(
        self,
        buy: float = 8.0,
        rent: float = 1.0,
        write_rent: float = 0.5,
    ) -> None:
        super().__init__()
        if buy <= 0:
            raise ValueError(f"buy cost must be positive, got {buy!r}")
        if rent < 0 or write_rent < 0:
            raise ValueError("rent charges must be >= 0")
        self.buy = float(buy)
        self.rent = float(rent)
        self.write_rent = float(write_rent)
        self.name = f"competitive(buy={buy:g})"
        #: cpage index -> rent accumulated this epoch
        self._accrued: dict[int, float] = {}
        #: rent-or-buy epochs closed by a buy (diagnostics)
        self.buys = 0

    @classmethod
    def from_params(cls, params, words_per_fault: float = 16.0):
        """Derive the buy threshold from the machine's break-even point.

        ``break_even_words`` words of remote traffic cost as much as one
        migration; at ``words_per_fault`` remote words moved per
        remote-mapped fault, the buy price in fault-rent units is the
        break-even divided by the per-fault word estimate.
        """
        buy = max(1.0, break_even_words(params) / max(1.0, words_per_fault))
        return cls(buy=buy)

    def decide(self, ctx: FaultContext) -> Action:
        idx = ctx.cpage.index
        accrued = self._accrued.get(idx, 0.0)
        accrued += self.write_rent if ctx.write else self.rent
        if accrued >= self.buy:
            self._accrued[idx] = 0.0
            self.buys += 1
            return _CACHE
        self._accrued[idx] = accrued
        return _REMOTE_MAP

    def note_invalidation(self, cpage, now: int) -> None:
        # another processor changed the page's configuration: the rent
        # measured against the old placement no longer argues for a buy
        if cpage.index in self._accrued:
            self._accrued[cpage.index] = 0.0
