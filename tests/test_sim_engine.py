"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, SimulationError


def test_starts_at_time_zero():
    assert Engine().now == 0


def test_schedule_and_run_in_order():
    engine = Engine()
    seen = []
    engine.schedule(30, lambda: seen.append("c"))
    engine.schedule(10, lambda: seen.append("a"))
    engine.schedule(20, lambda: seen.append("b"))
    engine.run()
    assert seen == ["a", "b", "c"]
    assert engine.now == 30


def test_ties_break_by_insertion_order():
    engine = Engine()
    seen = []
    for tag in "abc":
        engine.schedule(5, lambda tag=tag: seen.append(tag))
    engine.run()
    assert seen == ["a", "b", "c"]


def test_schedule_at_absolute_time():
    engine = Engine()
    seen = []
    engine.schedule_at(100, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [100]


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_at(5, lambda: None)


def test_nested_scheduling_from_event():
    engine = Engine()
    seen = []

    def first():
        seen.append(("first", engine.now))
        engine.schedule(7, lambda: seen.append(("second", engine.now)))

    engine.schedule(3, first)
    engine.run()
    assert seen == [("first", 3), ("second", 10)]


def test_run_until_stops_and_advances_clock():
    engine = Engine()
    seen = []
    engine.schedule(10, lambda: seen.append(10))
    engine.schedule(100, lambda: seen.append(100))
    executed = engine.run(until=50)
    assert executed == 1
    assert seen == [10]
    assert engine.now == 50
    engine.run()
    assert seen == [10, 100]


def test_run_until_with_empty_queue_advances_clock():
    engine = Engine()
    engine.run(until=1234)
    assert engine.now == 1234


def test_max_events_guard():
    engine = Engine()

    def rearm():
        engine.schedule(1, rearm)

    engine.schedule(1, rearm)
    with pytest.raises(SimulationError, match="max_events"):
        engine.run(max_events=100)


def test_max_events_executes_exactly_n_before_raising():
    # regression: the guard used to run N+1 events before raising
    engine = Engine()
    seen = []

    def rearm():
        seen.append(engine.now)
        engine.schedule(1, rearm)

    engine.schedule(1, rearm)
    with pytest.raises(SimulationError, match="max_events"):
        engine.run(max_events=5)
    assert len(seen) == 5


def test_max_events_not_raised_when_queue_drains_at_budget():
    engine = Engine()
    seen = []
    for i in range(5):
        engine.schedule(i + 1, lambda i=i: seen.append(i))
    executed = engine.run(max_events=5)
    assert executed == 5
    assert seen == [0, 1, 2, 3, 4]


def test_stop_from_inside_an_event():
    """What run_threads relies on: the event that notices the end stops
    the run itself, the clock stays at that event even under ``until``,
    and the flag is per run -- the next slice carries on."""
    engine = Engine()
    seen = []

    def note(i):
        seen.append(i)
        if len(seen) == 3:
            engine.stop()

    for i in range(10):
        engine.schedule(i + 1, lambda i=i: note(i))
    assert engine.run(until=100) == 3
    assert seen == [0, 1, 2]
    assert engine.now == 3
    assert engine.run(until=100) == 7
    assert len(seen) == 10
    assert engine.now == 100


def test_stop_method_halts_run():
    engine = Engine()
    seen = []

    def first():
        seen.append(1)
        engine.stop()

    engine.schedule(1, first)
    engine.schedule(2, lambda: seen.append(2))
    engine.run()
    assert seen == [1]
    assert engine.pending_events == 1


def test_step_executes_single_event():
    engine = Engine()
    seen = []
    engine.schedule(5, lambda: seen.append("x"))
    assert engine.step() is True
    assert seen == ["x"]
    assert engine.step() is False


def test_fractional_delays_round_to_ns():
    engine = Engine()
    times = []
    engine.schedule(10.4, lambda: times.append(engine.now))
    engine.schedule(10.6, lambda: times.append(engine.now))
    engine.run()
    assert times == [10, 11]


def test_reentrant_run_rejected():
    engine = Engine()

    def inner():
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(1, inner)
    engine.run()


def test_determinism_across_identical_runs():
    def build():
        engine = Engine()
        order = []
        for i in range(50):
            engine.schedule((i * 7) % 13, lambda i=i: order.append(i))
        engine.run()
        return order

    assert build() == build()


# -- same-timestamp fast path -------------------------------------------------


@pytest.mark.parametrize("fast_path", [True, False])
def test_zero_delay_events_run_fifo_within_an_event(fast_path):
    engine = Engine(fast_path=fast_path)
    seen = []

    def first():
        seen.append("first")
        engine.schedule(0, lambda: seen.append("wake-a"))
        engine.schedule(0, lambda: seen.append("wake-b"))

    engine.schedule(5, first)
    engine.schedule(5, lambda: seen.append("second"))
    engine.run()
    # zero-delay wakeups scheduled from within an event run after every
    # already-queued event at the same timestamp, in insertion order
    assert seen == ["first", "second", "wake-a", "wake-b"]


@pytest.mark.parametrize("fast_path", [True, False])
def test_heap_and_ready_deque_interleave_correctly(fast_path):
    # heap entries (scheduled before the timestamp arrived) must run
    # before deque entries (scheduled at the timestamp), matching seq
    # order; later timestamps run after both
    engine = Engine(fast_path=fast_path)
    seen = []

    def at_ten():
        seen.append("heap-1")
        engine.schedule(0, lambda: seen.append("now-1"))
        engine.schedule(1, lambda: seen.append("later"))
        engine.schedule(0, lambda: seen.append("now-2"))

    engine.schedule(10, at_ten)
    engine.schedule(10, lambda: seen.append("heap-2"))
    engine.run()
    assert seen == ["heap-1", "heap-2", "now-1", "now-2", "later"]
    assert engine.now == 11


@pytest.mark.parametrize("tie_seed", [None, 0, 1989])
def test_fast_path_equivalence_on_random_schedule(tie_seed):
    import random

    def build(fast_path):
        rng = random.Random(42)
        engine = Engine(fast_path=fast_path)
        if tie_seed is not None:
            engine.perturb_ties(random.Random(tie_seed))
        order = []

        def chain(i, depth):
            order.append((i, depth, engine.now))
            if depth:
                engine.schedule(0, lambda: chain(i, depth - 1))

        for i in range(100):
            engine.schedule(rng.randrange(10), lambda i=i: chain(i, 3))
        engine.run()
        return order

    assert build(True) == build(False)


def test_pending_events_counts_ready_deque():
    engine = Engine()
    seen = []

    def first():
        engine.schedule(0, lambda: seen.append("x"))
        engine.stop()

    engine.schedule(1, first)
    engine.run()
    # the zero-delay wakeup is still pending (on the ready deque)
    assert engine.pending_events == 1
    engine.run()
    assert seen == ["x"]


def test_perturb_ties_is_reproducible_per_seed():
    import random

    def build(seed):
        engine = Engine()
        engine.perturb_ties(random.Random(seed))
        order = []
        for i in range(30):
            engine.schedule(5, lambda i=i: order.append(i))
        engine.run()
        return order

    assert build(7) == build(7)
    assert build(7) != build(8)          # a different legal interleave
    assert sorted(build(7)) == list(range(30))


def test_perturb_ties_bypasses_fast_path():
    import random

    engine = Engine()
    seen = []

    def first():
        engine.perturb_ties(random.Random(3))
        # these same-time events go to the ready deque, but each pop
        # draws one of them instead of taking the oldest
        for tag in "abcdef":
            engine.schedule(0, lambda tag=tag: seen.append(tag))

    engine.schedule(1, first)
    engine.run()
    assert sorted(seen) == list("abcdef")
    assert seen != list("abcdef")  # Random(3) happens to reorder these


def test_perturb_ties_reorders_events_queued_before_it():
    import itertools
    import random

    orders = set()
    for seed in range(200):
        engine = Engine()
        seen = []

        def first():
            for tag in "abc":
                engine.schedule(0, lambda tag=tag: seen.append(tag))
            engine.perturb_ties(random.Random(seed))

        engine.schedule(1, first)
        engine.run()
        orders.add("".join(seen))
    # the draw is made at pop time, over every event then due: those
    # queued before the perturbation are drawn like any other
    assert orders == {"".join(p) for p in itertools.permutations("abc")}


def test_perturb_ties_takes_any_chooser():
    class Last:
        """Always the newest candidate; records how many it was offered."""

        def __init__(self):
            self.offered = []

        def randrange(self, n):
            self.offered.append(n)
            return n - 1

    engine = Engine()
    seen = []
    for tag in "abc":
        engine.schedule(5, lambda tag=tag: seen.append(tag))
    engine.schedule(9, lambda: seen.append("later"))
    chooser = Last()
    engine.perturb_ties(chooser)
    engine.run()
    assert seen == ["c", "b", "a", "later"]
    assert chooser.offered == [3, 2, 1, 1]


def test_clearing_perturb_ties_keeps_ordering_safe():
    import random

    engine = Engine()
    seen = []

    def first():
        engine.perturb_ties(random.Random(1))
        engine.schedule(0, lambda: seen.append("perturbed"))
        engine.perturb_ties(None)
        # with perturbed entries still queued at this timestamp, a new
        # same-time event must not jump ahead of them via the fast path
        engine.schedule(0, lambda: seen.append("after"))

    engine.schedule(1, first)
    engine.run()
    assert seen == ["perturbed", "after"]
