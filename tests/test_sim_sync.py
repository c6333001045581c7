"""Unit tests for engine-level synchronization channels."""

import pytest

from repro.sim import CountdownLatch, Engine, SimEvent


def test_fire_wakes_all_waiters_with_value():
    engine = Engine()
    event = SimEvent(engine, "e")
    got = []
    event.wait(got.append)
    event.wait(got.append)
    assert event.fire("v") == 2
    engine.run()
    assert got == ["v", "v"]
    assert event.fire("w") == 0  # the waiters were cleared


def test_event_is_reusable():
    engine = Engine()
    event = SimEvent(engine)
    got = []
    event.wait(got.append)
    event.fire(1)
    engine.run()
    event.wait(got.append)
    event.fire(2)
    engine.run()
    assert got == [1, 2]
    assert event.fire_count == 2


def test_latch_fires_after_n_arrivals():
    engine = Engine()
    latch = CountdownLatch(engine, 3)
    done = []
    latch.event.wait(done.append)
    latch.arrive()
    latch.arrive()
    assert not latch.done
    latch.arrive()
    assert latch.done
    engine.run()
    assert len(done) == 1
    assert latch.completed_at == 0


def test_latch_overflow_rejected():
    engine = Engine()
    latch = CountdownLatch(engine, 1)
    latch.arrive()
    with pytest.raises(RuntimeError):
        latch.arrive()


def test_latch_negative_count_rejected():
    with pytest.raises(ValueError):
        CountdownLatch(Engine(), -1)
