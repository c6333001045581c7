"""Profiler-tuned replication: per-page verdicts from the scorer.

The PR 4 counterfactual scorer prices every page's observed reference
string under the two pure alternatives (cache vs remote_map) and emits a
verdict per page.  :class:`TunedPolicy` closes the loop: it consumes a
``{cpage index: verdict}`` table -- produced offline by ``repro tune``
from a recorded trace bundle -- and pins each listed page to its
recommended treatment, falling back to the fixed freeze/thaw policy for
every page the profiler had no opinion about.

* ``"cache"`` pages always replicate/migrate (and thaw on fault if they
  were frozen by the fallback path);
* ``"remote_map"`` pages are pinned to a single copy: the policy
  freezes them at the first opportunity so every further mapping is a
  full-rights remote mapping, and vetoes defrost thaws for them --
  exactly what the section 4.2 programmers did by hand after reading
  the per-page instrumentation, mechanized.

Verdict tables arrive as JSON (``repro-tune/1`` documents), so keys are
coerced from strings and unknown verdict strings are rejected eagerly.
"""

from __future__ import annotations

from typing import Optional

from .base import Action, FaultContext
from .fixed import TimestampFreezePolicy

#: bound once: an Enum-class member load is dear (DESIGN.md section 5)
_CACHE, _REMOTE_MAP = Action.CACHE, Action.REMOTE_MAP

#: verdicts a tuned table may pin a page to
VERDICTS = ("cache", "remote_map")


class TunedPolicy(TimestampFreezePolicy):
    """Fixed policy plus a per-page verdict table from the profiler."""

    def __init__(
        self,
        table: Optional[dict] = None,
        t1: float = 10_000_000.0,
        thaw_on_fault: bool = False,
    ) -> None:
        super().__init__(t1=t1, thaw_on_fault=thaw_on_fault)
        self.table: dict[int, str] = {}
        for key, verdict in (table or {}).items():
            verdict = str(verdict)
            if verdict == "indifferent":
                continue  # the scorer's "either way" pages stay default
            if verdict not in VERDICTS:
                raise ValueError(
                    f"page {key}: unknown verdict {verdict!r} "
                    f"(want one of {', '.join(VERDICTS)})"
                )
            self.table[int(key)] = verdict
        self.name = f"tuned({len(self.table)} pages,t1={t1 / 1e6:g}ms)"

    def decide(self, ctx: FaultContext) -> Action:
        verdict = self.table.get(ctx.cpage.index)
        if verdict is None:
            return super().decide(ctx)
        cpage, now = ctx.cpage, ctx.now
        if verdict == "cache":
            if cpage.frozen:
                # same bookkeeping as the fixed thaw-on-fault variant
                self.thaw(cpage, now)
            return _CACHE
        # remote_map: pin the single copy, carrying full mapping rights
        # the way frozen pages do
        if not cpage.frozen and cpage.n_copies == 1:
            self.freeze(cpage, now)
        return _REMOTE_MAP

    def should_thaw(self, cpage, now: int) -> bool:
        return self.table.get(cpage.index) != "remote_map"
