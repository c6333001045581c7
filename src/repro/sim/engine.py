"""Discrete-event simulation engine.

The engine is a binary heap (``heapq``) of future events plus a FIFO deque
of events due at the current timestamp: callbacks are scheduled at
absolute simulated times (in nanoseconds) and executed in (time, seq)
order, where ``seq`` is a monotonically increasing tie-breaker that makes
every run fully deterministic.

Everything in the PLATINUM reproduction that needs a notion of time --
processors, the defrost daemon, interprocessor interrupts -- runs on top of
one :class:`Engine` instance.

Hot path
--------
Events scheduled *at the current time* (zero-delay wakeups, immediate
resumes) are the most common case in the executor, and pushing them through
the heap costs two O(log n) sifts plus tuple comparisons for an ordering
that is knowable in advance: a same-timestamp event scheduled now always
runs after every already-queued event at this timestamp (its ``seq`` is
larger) and before anything later.  So they go to a plain FIFO ``_ready``
deque instead of the heap.  The fast path is bypassed whenever
:meth:`perturb_ties` is active, because then same-timestamp order must
follow the seeded priorities, not insertion order.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the
    past, or running a finished engine)."""


class Engine:
    """A deterministic discrete-event simulation engine.

    Time is measured in integer nanoseconds: :meth:`schedule_at` takes
    an ``int`` as it is.  The two inputs that come from outside the
    simulated-time path -- a :meth:`schedule` delay (daemon periods,
    ``Delay`` ops, event fires) and :meth:`run`'s ``until`` -- may be
    fractional and are rounded to the nearest nanosecond.

    Ordering among events that share a timestamp is normally insertion
    order.  The schedule fuzzer (``repro.check.fuzz``) calls
    :meth:`perturb_ties` with a seeded RNG to explore other legal
    interleavings of same-timestamp events; a given seed still yields a
    fully deterministic run.

    ``fast_path=False`` forces every event through the heap (the pre-
    optimization behaviour); the determinism regression tests use it to
    show the fast path changes no simulated result.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_ready",
        "_seq",
        "_running",
        "_stopped",
        "_tie_rng",
        "_fast_path",
        "_no_fast_before",
    )

    def __init__(self, fast_path: bool = True) -> None:
        self._now: int = 0
        self._queue: list[
            tuple[int, float, int, Callable[[], None]]
        ] = []
        #: (seq, fn) events at exactly ``_now``, in insertion order
        self._ready: deque[tuple[int, Callable[[], None]]] = deque()
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self._tie_rng: Optional[random.Random] = None
        self._fast_path = fast_path
        # heap entries scheduled under a tie RNG carry random priorities;
        # until the clock passes the last of them, same-timestamp inserts
        # must keep going through the heap to order against them
        self._no_fast_before: int = 0

    def perturb_ties(self, rng: Optional[random.Random]) -> None:
        """Randomize execution order among same-timestamp events.

        ``rng`` draws a tie-breaking priority for every subsequently
        scheduled event; events at different timestamps are unaffected.
        Pass ``None`` to restore pure insertion order.
        """
        if rng is not None and self._ready:
            # pending fast-path events keep their insertion order (they
            # were scheduled with priority 0.0) but must live in the heap
            # to be ordered against randomly-prioritized newcomers
            for seq, fn in self._ready:
                heapq.heappush(self._queue, (self._now, 0.0, seq, fn))
            self._ready.clear()
        if rng is None and self._tie_rng is not None and self._queue:
            # events already in the heap keep their random priorities;
            # new same-timestamp events would previously have been pushed
            # with priority 0.0 (running *before* them), so the fast path
            # must stay off until the clock passes every perturbed entry
            self._no_fast_before = max(e[0] for e in self._queue) + 1
        self._tie_rng = rng

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at ``now + delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        self.schedule_at(self._now + int(round(delay)), fn)

    def schedule_at(self, when: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute simulated time ``when`` nanoseconds."""
        now = self._now
        if when < now:
            raise SimulationError(
                f"cannot schedule at {when} ns; now is {now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        rng = self._tie_rng
        if rng is None:
            if (
                when == now
                and self._fast_path
                and now >= self._no_fast_before
            ):
                self._ready.append((seq, fn))
                return
            # inside the no-fast window, perturbed entries (random
            # priorities in [0, 1)) may still share this timestamp;
            # priority 1.0 keeps insertion order against them, 0.0 would
            # jump ahead of them
            prio = 1.0 if when < self._no_fast_before else 0.0
            heapq.heappush(self._queue, (when, prio, seq, fn))
        else:
            heapq.heappush(self._queue, (when, rng.random(), seq, fn))

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        return len(self._queue) + len(self._ready)

    @property
    def events_executed(self) -> int:
        """Events executed so far: scheduled minus still pending."""
        return self._seq - len(self._queue) - len(self._ready)

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain.

        The reference for :meth:`run`'s inline pop; the differential
        test in tests/test_engine_loop.py holds the two to one order."""
        queue = self._queue
        ready = self._ready
        # a heap entry at the current time always has a smaller seq than
        # anything in the ready deque (the deque only receives events
        # scheduled *at* the current time, after those heap pushes)
        if queue and (not ready or queue[0][0] == self._now):
            when, _prio, _seq, fn = heapq.heappop(queue)
            self._now = when
        elif ready:
            _seq, fn = ready.popleft()
        else:
            return False
        fn()
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains (or a limit is reached).

        Parameters
        ----------
        until:
            If given, rounded to a whole ns: stop once the next event
            would be strictly after that time; the clock is advanced to it.
        max_events:
            Safety valve: raise :class:`SimulationError` after this many
            events, to catch accidental infinite event loops.

        An event that calls :meth:`stop` ends the run once it returns.
        Returns the number of events executed.

        Each event is popped inline, by :meth:`step`'s rule: a frame less
        per event.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        executed = 0
        limit = None if until is None else int(round(until))
        queue = self._queue
        ready = self._ready
        heappop = heapq.heappop
        popleft = ready.popleft
        try:
            while not self._stopped:
                if ready:
                    when = self._now
                    # step's rule: a heap entry at the current time has a
                    # smaller seq than anything in the ready deque
                    from_heap = queue and queue[0][0] == when
                elif queue:
                    when = queue[0][0]
                    from_heap = True
                else:
                    break
                if limit is not None and when > limit:
                    break
                if max_events is not None and executed >= max_events:
                    # checked with events still pending, so exactly
                    # ``max_events`` run and a queue that drains right at
                    # the budget does not raise
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "possible runaway event loop"
                    )
                if from_heap:
                    fn = heappop(queue)[3]
                    self._now = when
                else:
                    fn = popleft()[1]
                fn()
                executed += 1
            if limit is not None and not self._stopped and limit > self._now:
                self._now = limit
        finally:
            self._running = False
        return executed
