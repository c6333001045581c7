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
deque instead of the heap.  Only the pop decides the order of
same-timestamp events, so a push never needs to know whether
:meth:`perturb_ties` is active.
"""

from __future__ import annotations

import heapq
import random
import weakref
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
    fully deterministic run, with or without the fast path.

    ``fast_path=False`` sends events through the heap (the pre-
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
    )

    def __init__(self, fast_path: bool = True) -> None:
        self._now: int = 0
        #: (when, seq, fn) future events
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        #: events due at ``_now``, in insertion order
        self._ready: deque[Callable[[], None]] = deque()
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self._tie_rng: Optional[random.Random] = None
        self._fast_path = fast_path

    def perturb_ties(self, rng: Optional[random.Random]) -> None:
        """Randomize execution order among same-timestamp events.

        While ``rng`` is set, each pop draws with ``rng.randrange(n)``
        (any object with that method will do) one of the ``n`` events
        due at the earliest pending time, those queued before this call
        included.  Pass ``None`` to restore pure insertion order.
        """
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
        # without the fast path the deque holds only what a perturbed pop
        # left at this instant; a newcomer queues behind it
        if when == now and (self._fast_path or self._ready):
            self._ready.append(fn)
        else:
            heapq.heappush(self._queue, (when, seq, fn))

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

    def _pop_tie(self, when: int) -> Callable[[], None]:
        """Under :meth:`perturb_ties`: move the heap's events due at
        ``when`` to the front of the ready deque (they are the older),
        set the clock and remove the event the tie RNG draws from it."""
        queue = self._queue
        ready = self._ready
        due = []
        while queue and queue[0][0] == when:
            due.append(heapq.heappop(queue)[2])
        ready.extendleft(reversed(due))
        self._now = when
        index = self._tie_rng.randrange(len(ready))
        fn = ready[index]
        del ready[index]
        return fn

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain.

        The reference for :meth:`run`'s inline pop; the differential
        test in tests/test_engine_loop.py holds the two to one order."""
        queue = self._queue
        ready = self._ready
        if ready:
            when = self._now
        elif queue:
            when = queue[0][0]
        else:
            return False
        if self._tie_rng is not None:
            fn = self._pop_tie(when)
        # the heap's events due now are older than any in the deque
        # (schedule_at and _pop_tie keep it so)
        elif queue and queue[0][0] == when:
            fn = heapq.heappop(queue)[2]
            self._now = when
        else:
            fn = ready.popleft()
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
        per event (a perturbed tie takes :meth:`_pop_tie`'s).
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
                    # step's rule: the heap's events due now come first
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
                if self._tie_rng is not None:
                    fn = self._pop_tie(when)
                elif from_heap:
                    fn = heappop(queue)[2]
                    self._now = when
                else:
                    fn = popleft()
                fn()
                executed += 1
            if limit is not None and not self._stopped and limit > self._now:
                self._now = limit
        finally:
            self._running = False
        return executed


class Daemon:
    """A periodic clock interrupt: :meth:`run_once` every ``period`` ns
    of simulated time on ``machine.engine``, from :meth:`start` on and
    never before (the defrost and migration daemons, the sampler).

    The engine's queue holds the next tick weakly and a daemon holds
    nothing that owns it: its kernel owns it, and a finished kernel is
    freed by reference counting (DESIGN.md section 2).
    """

    _wake: Optional[Callable[[], None]] = None  # the tick, once started

    def start(self) -> None:
        """Schedule the periodic tick (idempotent)."""
        if self._wake is None:
            tick = weakref.WeakMethod(self._tick)

            def wake() -> None:
                bound = tick()
                if bound is not None:
                    bound()
            self._wake = wake
            self.machine.engine.schedule(self.period, wake)

    def _tick(self) -> None:
        self.run_once()
        self.machine.engine.schedule(self.period, self._wake)
