"""Per-page adaptive freeze/thaw: learn ``t1``/``t2`` from the protocol.

The paper's interim policy hard-codes two constants for every page on
the machine: a 10 ms freeze window (``t1``) and a 1 s defrost period
(``t2``), and section 4.2 itself reports the anecdote that motivates
doing better -- a falsely shared page that kept being replicated,
invalidated and re-frozen around every defrost tick.

:class:`AdaptiveFreezePolicy` keeps the fixed policy's structure but
learns, per page, from the protocol history it already owns:

* through the :meth:`~repro.policy.base.ReplicationPolicy.
  note_invalidation` hook the fault handler drives, an EWMA of the
  intervals between protocol invalidations -- steady sub-threshold
  intervals mean the interference is not incidental;
* through its own :meth:`thaw` bookkeeping, *re-invalidation after a
  thaw*: an invalidation arriving within ``hot_threshold`` of the
  page's last thaw means the thaw was a mistake -- the page came out of
  the freezer, was replicated, and was promptly collapsed again, which
  is exactly the section 4.2 anecdote's defrost-period ping-pong.

A page either signal marks *hot* gets per-page thresholds:

* its freeze window widens to ``t1 * t1_hot_factor``, so after a thaw
  the next fault re-freezes it immediately instead of paying another
  replicate/invalidate round trip to rediscover the interference;
* the defrost daemon (via :meth:`should_thaw`) leaves it frozen until it
  has been frozen for ``t2_hot``, instead of thawing it every global
  ``t2`` tick just to watch it ping-pong back.

Cold pages -- invalidated rarely or never -- see exactly the fixed
policy's behaviour.  ``page_t1`` accepts explicit per-page windows (from
``repro tune``), which take precedence over the learned estimate.
"""

from __future__ import annotations

from typing import Optional

from .fixed import TimestampFreezePolicy


class AdaptiveFreezePolicy(TimestampFreezePolicy):
    """The fixed freeze/thaw policy with learned per-page thresholds.

    Parameters
    ----------
    t1:
        The base freeze window in ns (the fixed policy's constant).
    t1_hot_factor:
        Freeze-window multiplier for hot pages.
    t2_hot:
        Minimum frozen time in ns before a hot page may be thawed.
    hot_threshold:
        A page is hot once its EWMA inter-invalidation interval falls
        below this many ns, or once it is invalidated within this many
        ns of a thaw (default: ``t1`` itself -- invalidations inside
        the freeze window are the interference the window exists to
        catch).
    ewma_beta:
        Weight of the newest observed interval in the EWMA.
    page_t1:
        Explicit per-page freeze windows, ``{cpage index: ns}``; tuned
        parameter sets from ``repro tune`` land here.  JSON round trips
        deliver string keys, so keys are coerced.
    """

    def __init__(
        self,
        t1: float = 10_000_000.0,
        thaw_on_fault: bool = False,
        t1_hot_factor: float = 64.0,
        t2_hot: float = 400_000_000.0,
        hot_threshold: Optional[float] = None,
        ewma_beta: float = 0.5,
        page_t1: Optional[dict] = None,
    ) -> None:
        super().__init__(t1=t1, thaw_on_fault=thaw_on_fault)
        if t1_hot_factor < 1.0:
            raise ValueError(
                f"t1_hot_factor must be >= 1, got {t1_hot_factor!r}")
        if not 0.0 < ewma_beta <= 1.0:
            raise ValueError(
                f"ewma_beta must be in (0, 1], got {ewma_beta!r}")
        self.t1_hot_factor = float(t1_hot_factor)
        self.t2_hot = float(t2_hot)
        self.hot_threshold = float(
            hot_threshold if hot_threshold is not None else t1
        )
        self.ewma_beta = float(ewma_beta)
        self.page_t1 = {
            int(k): float(v) for k, v in (page_t1 or {}).items()
        }
        self.name = "adaptive(t1={:g}ms,x{:g},t2_hot={:g}ms)".format(
            t1 / 1e6, self.t1_hot_factor, self.t2_hot / 1e6
        )
        #: cpage index -> EWMA of inter-invalidation interval (ns)
        self._interval_ewma: dict[int, float] = {}
        #: cpage index -> engine time of the last observed invalidation
        self._last_seen: dict[int, int] = {}
        #: cpage index -> engine time of the page's last thaw
        self._last_thaw: dict[int, int] = {}
        #: pages caught re-invalidated right after a thaw
        self._hot: set[int] = set()
        #: thaws vetoed by should_thaw (diagnostics)
        self.thaws_deferred = 0

    # -- learning -------------------------------------------------------------

    def thaw(self, cpage, now: int) -> None:
        if cpage.frozen:
            self._last_thaw[cpage.index] = now
        super().thaw(cpage, now)

    def note_invalidation(self, cpage, now: int) -> None:
        idx = cpage.index
        prev = self._last_seen.get(idx)
        if prev is not None and now > prev:
            interval = float(now - prev)
            old = self._interval_ewma.get(idx)
            self._interval_ewma[idx] = (
                interval if old is None
                else (1.0 - self.ewma_beta) * old
                + self.ewma_beta * interval
            )
        self._last_seen[idx] = now
        thawed = self._last_thaw.get(idx)
        if thawed is not None and 0 <= now - thawed < self.hot_threshold:
            # the thaw bought one replicate/invalidate round trip and
            # nothing else: the interference is still there
            self._hot.add(idx)

    def is_hot(self, cpage) -> bool:
        """Hot = re-invalidated right after a thaw, or steadily
        invalidated faster than the hot threshold."""
        if cpage.index in self._hot:
            return True
        ewma = self._interval_ewma.get(cpage.index)
        return ewma is not None and ewma < self.hot_threshold

    def t1_for(self, cpage) -> float:
        """The freeze window in force for one page."""
        override = self.page_t1.get(cpage.index)
        if override is not None:
            return override
        if self.is_hot(cpage):
            return self.t1 * self.t1_hot_factor
        return self.t1

    # -- the policy interface -------------------------------------------------

    def _window_expired(self, cpage, now: int) -> bool:
        # decide() (inherited) keys every choice on this predicate, so a
        # per-page window is the whole behavioural difference on faults
        return (
            cpage.last_invalidation is None
            or now - cpage.last_invalidation >= self.t1_for(cpage)
        )

    def should_thaw(self, cpage, now: int) -> bool:
        widened = self.t1_for(cpage) > self.t1
        if not widened:
            return True
        frozen_at = cpage.frozen_at if cpage.frozen_at is not None else now
        if now - frozen_at >= self.t2_hot:
            return True
        self.thaws_deferred += 1
        return False
