"""Unit tests for engine-level synchronization channels."""

import pytest

from repro.sim import Engine, SimEvent


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
