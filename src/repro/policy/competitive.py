"""Online competitive replication: per-page rent-or-buy (paper section 8).

``repro.core.competitive`` implements the section 8 comparator as the
paper describes it -- a migration *daemon* sweeping simulated hardware
reference counts.  This module generalizes the same competitive argument
into a pure fault-driven member of the policy zoo, with no daemon and no
reference-counting overhead: every remote-mapped fault on a page is a
*rent* payment, and once the accumulated rent since the page's last
configuration change reaches the cost of a migration (the *buy*), the
policy caches the page on the faulting processor.

This is the classic ski-rental / rent-or-buy scheme (Black, Gupta and
Weber's competitively optimal migration): per epoch -- the interval
between configuration changes -- the online cost is at most

    ``2 * OPT + max_single_rent``

where ``OPT = min(buy, total rent)`` is the offline optimum that knows
the whole reference string in advance.  :func:`rent_or_buy_cost` is the
decision procedure factored out as a pure function so the bound is
directly property-testable (``tests/test_core_competitive.py``).

Costs are in abstract *rent units*: one read-miss remote mapping pays
``rent``, a write pays ``write_rent`` (write-shared pages should buy
later, not earlier -- migrating them ping-pongs), and ``buy`` is the
migration price in the same units.  :meth:`OnlineCompetitivePolicy.
from_params` derives the default ratio from the machine's measured
break-even point instead.
"""

from __future__ import annotations

from typing import Sequence

from .base import Action, FaultContext, ReplicationPolicy

#: bound once: an Enum-class member load is dear (DESIGN.md section 5)
_CACHE, _REMOTE_MAP = Action.CACHE, Action.REMOTE_MAP


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
        from ..core.competitive import break_even_words

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
