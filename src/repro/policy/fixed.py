"""The paper's fixed policies (sections 4.2 and 8).

PLATINUM's interim policy uses a minimal history: the timestamp of the
most recent invalidation by the coherency protocol.  A fault
replicates/migrates only if that invalidation is at least ``t1`` in the
past; otherwise the page is *frozen*, and stays frozen until the defrost
daemon thaws it (period ``t2``) or -- in the alternative policy variant
-- until a fault after the window expires thaws it in place.

The family here also includes the baselines the paper discusses:
always-replicate (classic software DSM behaviour), never-cache (pure
remote access / static placement, the Uniform System style), and an
ACE-style policy after Bolosky et al. (writable pages never replicate
and migrate only a bounded number of times before freezing).
"""

from __future__ import annotations

from ..core.cpage import CpageState
from .base import Action, FaultContext, ReplicationPolicy

#: bound once: an Enum-class member load is dear (DESIGN.md section 5)
_CACHE, _REMOTE_MAP = Action.CACHE, Action.REMOTE_MAP
_EMPTY = CpageState.EMPTY


class TimestampFreezePolicy(ReplicationPolicy):
    """PLATINUM's interim policy (section 4.2).

    Parameters
    ----------
    t1:
        The freeze window in ns (paper default: 10 ms).
    thaw_on_fault:
        The paper's *alternative* variant: a fault arriving after the
        window has expired on a frozen page thaws it and caches.  The
        default variant keeps the page frozen until explicitly thawed by
        the defrost daemon.
    """

    def __init__(self, t1: float = 10_000_000.0, thaw_on_fault: bool = False):
        super().__init__()
        self.t1 = t1
        self.thaw_on_fault = thaw_on_fault
        self.name = (
            "freeze(t1={:g}ms{})".format(
                t1 / 1e6, ",thaw-on-fault" if thaw_on_fault else ""
            )
        )

    def _window_expired(self, cpage, now: int) -> bool:
        return (
            cpage.last_invalidation is None
            or now - cpage.last_invalidation >= self.t1
        )

    def decide(self, ctx: FaultContext) -> Action:
        cpage, now = ctx.cpage, ctx.now
        if cpage.frozen:
            if self.thaw_on_fault and self._window_expired(cpage, now):
                self.thaw(cpage, now)
                return _CACHE
            return _REMOTE_MAP
        if self._window_expired(cpage, now):
            return _CACHE
        # recently invalidated: interprocessor interference suspected.
        # Invalidations leave the page modified with a single copy, which
        # is exactly the precondition for freezing.
        if len(cpage.frames) == 1:
            self.freeze(cpage, now)
            return _REMOTE_MAP
        return _CACHE


class AlwaysReplicatePolicy(ReplicationPolicy):
    """Cache on every miss: classic software-DSM behaviour (Li's SVM).

    Pathological under fine-grain write-sharing, which is the case the
    paper's remote-mapping extension exists to fix.
    """

    name = "always-replicate"

    def decide(self, ctx: FaultContext) -> Action:
        return _CACHE


class NeverCachePolicy(ReplicationPolicy):
    """Never replicate or migrate: all non-local access is remote.

    With round-robin or first-touch initial placement this reproduces the
    Uniform System / static placement programming model.
    """

    name = "never-cache"

    def decide(self, ctx: FaultContext) -> Action:
        if ctx.cpage.state is _EMPTY:
            return _CACHE  # first touch places the page
        return _REMOTE_MAP


class AceStylePolicy(ReplicationPolicy):
    """Bolosky et al.'s ACE policy (paper section 8).

    Writable pages are never replicated and may migrate only
    ``max_migrations`` times before being frozen in place; read-only (never
    yet written) pages replicate freely.
    """

    def __init__(self, max_migrations: int = 2):
        super().__init__()
        self.max_migrations = max_migrations
        self.name = f"ace(max_migrations={max_migrations})"

    def decide(self, ctx: FaultContext) -> Action:
        cpage = ctx.cpage
        if cpage.frozen:
            return _REMOTE_MAP
        if ctx.write or cpage.stats.write_faults > 0:
            if cpage.stats.migrations >= self.max_migrations:
                if cpage.n_copies == 1:
                    self.freeze(cpage, ctx.now)
                return _REMOTE_MAP
            if ctx.write:
                return _CACHE
            # read miss on a page that has been written: never replicate
            return _REMOTE_MAP
        return _CACHE
