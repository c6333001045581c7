"""Tests for the thread executor: operation semantics and timing."""

import numpy as np
import pytest

from repro import make_kernel, run_program
from repro.runtime import (
    Compute,
    FetchAdd,
    GetTime,
    Program,
    Read,
    TestAndSet,
    Write,
)


class OneShot(Program):
    """Run a single generator on processor 0 and capture its result."""

    name = "oneshot"

    def __init__(self, fn, pages=4):
        self.fn = fn
        self.pages = pages

    def setup(self, api):
        self.arena = api.arena(self.pages, label="data")
        self.base = self.arena.base_va
        api.spawn(0, self.body, name="solo")

    def body(self, env):
        result = yield from self.fn(self, env)
        return result


def run_one(fn, n_processors=2, pages=4):
    kernel = make_kernel(n_processors=n_processors, defrost_enabled=False)
    result = run_program(kernel, OneShot(fn, pages))
    return result


def test_write_then_read_roundtrip():
    def body(prog, env):
        yield Write(prog.base, np.arange(10, dtype=np.int64))
        data = yield Read(prog.base, 10)
        return list(map(int, data))

    assert run_one(body).thread_results[0] == list(range(10))


def test_scalar_write():
    def body(prog, env):
        yield Write(prog.base + 3, 42)
        data = yield Read(prog.base + 3, 1)
        return int(data[0])

    assert run_one(body).thread_results[0] == 42


def test_cross_page_access_splits_runs():
    def body(prog, env):
        wpp = env.kernel.params.words_per_page
        start = prog.base + wpp - 5
        yield Write(start, np.arange(10, dtype=np.int64))
        data = yield Read(start, 10)
        return list(map(int, data))

    result = run_one(body)
    assert result.thread_results[0] == list(range(10))
    # two distinct pages were touched
    faulted = [r for r in result.report.rows if r.faults > 0]
    assert len([r for r in faulted if r.label.startswith("data")]) == 2


def test_read_costs_local_time():
    def body(prog, env):
        yield Write(prog.base, 0)  # fault in the page
        t0 = yield GetTime()
        yield Read(prog.base, 100)
        t1 = yield GetTime()
        return t1 - t0

    elapsed = run_one(body).thread_results[0]
    assert elapsed == pytest.approx(100 * 320, rel=0.05)


def test_compute_advances_time_exactly():
    def body(prog, env):
        t0 = yield GetTime()
        yield Compute(12345)
        t1 = yield GetTime()
        return t1 - t0

    assert run_one(body).thread_results[0] == 12345


def test_negative_compute_crashes_thread():
    def body(prog, env):
        yield Compute(-5)

    with pytest.raises(Exception):
        run_one(body)


def test_test_and_set_semantics():
    def body(prog, env):
        old1 = yield TestAndSet(prog.base)
        old2 = yield TestAndSet(prog.base)
        yield Write(prog.base, 0)
        old3 = yield TestAndSet(prog.base, 5)
        return (old1, old2, old3)

    assert run_one(body).thread_results[0] == (0, 1, 0)


def test_fetch_add_semantics():
    def body(prog, env):
        a = yield FetchAdd(prog.base, 10)
        b = yield FetchAdd(prog.base, -3)
        return (a, b)

    assert run_one(body).thread_results[0] == (10, 7)


def test_zero_length_read_crashes():
    def body(prog, env):
        yield Read(prog.base, 0)

    with pytest.raises(Exception):
        run_one(body)


def test_negative_address_crashes():
    def body(prog, env):
        yield Read(-1, 1)

    with pytest.raises(Exception):
        run_one(body)


class TwoWriters(Program):
    """Concurrent atomics from two processors serialize correctly."""

    name = "two-writers"

    def setup(self, api):
        arena = api.arena(1, label="ctr")
        self.va = arena.alloc(1)
        for p in range(2):
            api.spawn(p, self.body, name=f"w{p}")

    def body(self, env):
        last = 0
        for _ in range(50):
            last = yield FetchAdd(self.va, 1)
        return last

    def verify(self, results):
        # 100 increments happened in total; someone saw the final value
        assert max(results) == 100


def test_concurrent_fetch_add_is_atomic():
    kernel = make_kernel(n_processors=2)
    result = run_program(kernel, TwoWriters())
    final = result.kernel.coherent.cpages.get(0)
    frame = next(iter(final.frames.values()))
    assert frame.data[0] == 100


def test_ipi_penalty_charged_to_next_operation():
    """A processor that gets interrupted pays for it on its next op."""
    def body(prog, env):
        yield Write(prog.base, 1)
        # charge a synthetic pending penalty, then time a pure compute
        env.kernel.machine.interrupts.charge(0, 50_000)
        t0 = yield GetTime()
        yield Compute(1000)
        t1 = yield GetTime()
        return t1 - t0

    elapsed = run_one(body).thread_results[0]
    assert elapsed == pytest.approx(51_000, rel=0.01)


class StridedReader(Program):
    """Reads with gaps across many pages: exercises run splitting on
    non-contiguous patterns built from single-word ops."""

    name = "strided"

    def setup(self, api):
        arena = api.arena(4, label="grid")
        self.base = arena.base_va
        self.wpp = api.kernel.params.words_per_page
        api.spawn(0, self.body)

    def body(self, env):
        # touch one word on each page, then read them back
        for page in range(4):
            yield Write(self.base + page * self.wpp + 17, page * 11)
        total = 0
        for page in range(4):
            v = yield Read(self.base + page * self.wpp + 17, 1)
            total += int(v[0])
        return total

    def verify(self, results):
        assert results == [0 + 11 + 22 + 33]


def test_strided_access_pattern():
    kernel = make_kernel(n_processors=2)
    run_program(kernel, StridedReader())
