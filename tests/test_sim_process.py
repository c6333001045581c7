"""Unit tests for generator-based simulation processes."""

import pytest

from repro.sim import (
    Delay,
    Engine,
    Process,
    ProcessCrashed,
    SimEvent,
    SimulationError,
    WaitFor,
)


def test_delay_advances_time():
    engine = Engine()

    def body():
        yield Delay(100)
        yield Delay(50)
        return engine.now

    proc = Process(engine, body()).start()
    engine.run()
    assert proc.finished
    assert proc.result == 150


def test_result_defaults_to_none():
    engine = Engine()

    def body():
        yield Delay(1)

    proc = Process(engine, body()).start()
    engine.run()
    assert proc.result is None


def test_wait_for_event_receives_value():
    engine = Engine()
    event = SimEvent(engine, "e")

    def waiter():
        value = yield WaitFor(event)
        return value

    proc = Process(engine, waiter()).start()
    engine.schedule(40, lambda: event.fire("payload"))
    engine.run()
    assert proc.result == "payload"
    assert proc.finished_at == 40


def test_crash_is_recorded_and_reraised_by_check():
    engine = Engine()

    def body():
        yield Delay(1)
        raise ValueError("boom")

    proc = Process(engine, body()).start()
    engine.run()
    assert proc.finished
    assert isinstance(proc.error, ValueError)
    with pytest.raises(ProcessCrashed):
        proc.check()


def test_unsupported_yield_crashes_process():
    engine = Engine()

    def body():
        yield object()

    proc = Process(engine, body()).start()
    engine.run()
    assert proc.error is not None


def test_double_start_rejected():
    engine = Engine()

    def body():
        yield Delay(1)

    proc = Process(engine, body()).start()
    with pytest.raises(SimulationError):
        proc.start()


def test_on_finish_callback():
    engine = Engine()
    done = []

    def body():
        yield Delay(5)
        return 42

    proc = Process(engine, body())
    proc.on_finish(lambda p: done.append(p.result))
    proc.start()
    engine.run()
    assert done == [42]
    # registering after completion fires immediately
    proc.on_finish(lambda p: done.append("late"))
    assert done == [42, "late"]


def test_interleaving_of_two_processes():
    engine = Engine()
    trace = []

    def body(tag, step):
        for _ in range(3):
            yield Delay(step)
            trace.append((tag, engine.now))

    for proc in (Process(engine, body("a", 10)),
                 Process(engine, body("b", 15))):
        proc.start()
    engine.run()
    # at t=30 both are due; b's event was scheduled earlier (at t=15)
    # so the deterministic tie-break runs it first
    assert trace == [
        ("a", 10), ("b", 15), ("a", 20), ("b", 30), ("a", 30), ("b", 45),
    ]
