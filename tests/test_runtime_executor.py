"""Tests for the thread executor: operation semantics and timing."""

import hashlib

import numpy as np
import pytest

from repro import make_kernel, run_program
from repro.replay import record_spec
from repro.runtime import (
    Compute,
    ExecutionError,
    FetchAdd,
    GetTime,
    Migrate,
    Program,
    Read,
    TestAndSet,
    ThreadProcess,
    Write,
)
from repro.sim.process import Delay, Op, ProcessCrashed
from repro.workloads.generate import bench_spec_for
from repro.workloads.spec import PhaseSpec, WorkloadSpec


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


#: what a Write of each value reads back, on either machine
WRITABLE = [
    (7, [7]),
    (True, [1]),
    (np.int32(-3), [-3]),
    (np.bool_(True), [1]),
    (np.array([1, 2], dtype=np.int32), [1, 2]),
    (np.array([5], dtype=np.uint8), [5]),
    (np.array([True, False]), [1, 0]),
    ([4, 5], [4, 5]),
    (np.array(5), [5]),
]

#: values that used to be cast to a silently wrong word (2.5 read back
#: as 2, NaN and 1e30 as the most negative word, "7" as 7)
UNWRITABLE = [2.5, float("nan"), 1e30, np.array([1.7, -2.2]), "7",
              np.float64(3.0), None]


def write_and_read(value):
    def body(prog, env):
        yield Write(prog.base, value)
        n = 1 if np.ndim(value) == 0 else len(value)
        data = yield Read(prog.base, n)
        return list(map(int, data))
    return body


def run_both(body):
    """Runners of ``body`` on the NUMA executor and the Sequent baseline."""
    from repro.baselines.sequent import run_on_sequent

    return (lambda: run_one(body),
            lambda: run_on_sequent(OneShot(body), n_processors=2))


@pytest.mark.parametrize("value, words", WRITABLE,
                         ids=[repr(v) for v, _ in WRITABLE])
def test_a_write_stores_integers_and_bools(value, words):
    for run in run_both(write_and_read(value)):
        assert run().thread_results[0] == words


@pytest.mark.parametrize("value", UNWRITABLE,
                         ids=[repr(v) for v in UNWRITABLE])
def test_a_write_of_a_non_integer_crashes_the_thread(value):
    for run in run_both(write_and_read(value)):
        with pytest.raises(ProcessCrashed) as crash:
            run()
        cause = crash.value.__cause__
        assert isinstance(cause, ExecutionError)
        assert "a word is an integer or a bool" in str(cause)


#: ops both machines refuse with the same ExecutionError; the Sequent
#: used to run them (a negative compute took no time, a negative address
#: read from the end of memory, an empty read returned nothing) or let a
#: raw ValueError escape the engine; PLATINUM's atomics called a negative
#: address a wild access of virtual page -1
REFUSED = [
    (lambda base: Compute(-5.0), "compute time -5.0 is not in [0, inf)"),
    (lambda base: Compute(float("nan")),
     "compute time nan is not in [0, inf)"),
    (lambda base: Read(-3, 2), "negative address -3"),
    (lambda base: Read(base, 0), "access of 0 words at va 0"),
    (lambda base: Write(-2, 5), "negative address -2"),
    (lambda base: TestAndSet(-1), "negative address -1"),
    (lambda base: FetchAdd(-4, 1), "negative address -4"),
]

#: accesses past the Sequent's flat memory (1 << 22 words at 2
#: processors); PLATINUM refuses them as wild accesses of unbound pages
BEYOND = [
    lambda: Read(1 << 22, 1),
    lambda: Read((1 << 22) - 1, 2),
    lambda: Write(1 << 22, 5),
    lambda: TestAndSet(1 << 22),
    lambda: FetchAdd(1 << 22, 1),
]


def crash_of(run):
    with pytest.raises(ProcessCrashed) as crash:
        run()
    return crash.value.__cause__


@pytest.mark.parametrize("make_op, message", REFUSED,
                         ids=[m for _op, m in REFUSED])
def test_both_machines_refuse_an_invalid_op_as_a_thread_crash(make_op,
                                                              message):
    def body(prog, env):
        yield make_op(prog.base)

    for run in run_both(body):
        cause = crash_of(run)
        assert isinstance(cause, ExecutionError)
        assert str(cause) == message


@pytest.mark.parametrize("make_op", BEYOND,
                         ids=["read", "read-straddling", "write",
                              "test-and-set", "fetch-add"])
def test_an_access_beyond_memory_is_a_thread_crash(make_op):
    def body(prog, env):
        yield make_op()

    platinum, sequent = run_both(body)
    assert "wild access" in str(crash_of(platinum))
    cause = crash_of(sequent)
    assert isinstance(cause, ExecutionError)
    assert str(cause).endswith("is beyond memory")


def test_the_sequent_refuses_migration_as_an_unsupported_op():
    from repro.baselines.sequent import run_on_sequent

    def body(prog, env):
        yield Migrate(1)

    cause = crash_of(lambda: run_on_sequent(OneShot(body), n_processors=2))
    assert isinstance(cause, ExecutionError)
    assert str(cause) == "unsupported operation Migrate(processor=1)"


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


@pytest.mark.parametrize("ns", [float("inf"), float("nan"), -5])
def test_absurd_compute_is_a_thread_crash_naming_the_value(ns):
    # infinity and NaN used to escape as the OverflowError / ValueError
    # of rounding them onto the clock
    def body(prog, env):
        yield Compute(ns)

    with pytest.raises(ProcessCrashed) as crash:
        run_one(body)
    assert isinstance(crash.value.__cause__, ExecutionError)
    assert str(crash.value.__cause__) == \
        f"compute time {ns} is not in [0, inf)"


def test_a_huge_finite_compute_is_just_late():
    # a hand-written program is not capped (a spec is: MAX_COMPUTE_NS)
    def body(prog, env):
        yield Compute(1e300)

    assert run_one(body).sim_time_ns >= 1e300


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


# -- the dispatch table and the single-page fast lane ---------------------------


class TaggedRead(Read):
    """A user's own op type: runs as the ``Read`` it derives from."""


def test_user_subclass_of_an_op_still_executes():
    def body(prog, env):
        yield Write(prog.base, np.arange(4, dtype=np.int64))
        data = yield TaggedRead(prog.base + 1, 2)
        yield Delay(100)  # the base Process's ops go through the table too
        return list(map(int, data))

    assert run_one(body).thread_results[0] == [1, 2]


def test_unknown_op_kills_the_thread_not_the_engine():
    class Bogus(Op):
        pass

    def dies(prog, env):
        yield Bogus()

    with pytest.raises(ProcessCrashed) as crash:
        run_one(dies)
    assert isinstance(crash.value.__cause__, ExecutionError)
    assert "unsupported operation" in str(crash.value.__cause__)

    def survives(prog, env):
        try:
            yield Bogus()
        except ExecutionError:
            pass
        yield Compute(10)
        return "survived"

    assert run_one(survives).thread_results[0] == "survived"


def test_resume_value_does_not_leak_into_the_next_op():
    """One value slot serves every op: a read's data must be gone by
    the time a later, valueless op resumes -- also across a GetTime,
    which resumes synchronously inside the read's own wake-up."""
    def body(prog, env):
        data = yield Read(prog.base, 3)
        now = yield GetTime()
        after_compute = yield Compute(10)
        after_write = yield Write(prog.base, 1)
        old = yield TestAndSet(prog.base + 1)
        after_delay = yield Delay(5)
        return (len(data), now > 0, after_compute, after_write, old,
                after_delay)

    assert run_one(body).thread_results[0] == (
        3, True, None, None, 0, None)


@pytest.mark.parametrize("make_op, message", [
    (lambda base, wpp: Read(base, 0), "access of 0 words at va"),
    (lambda base, wpp: Read(base, -2), "access of -2 words at va"),
    (lambda base, wpp: Write(base, np.empty(0, dtype=np.int64)),
     "access of 0 words at va"),
    (lambda base, wpp: Read(-1, 1), "negative address -1"),
    (lambda base, wpp: Write(-1024, 7), "negative address -1024"),
    (lambda base, wpp: Read(-3, 8), "negative address -3"),
])
def test_malformed_accesses_keep_their_messages(make_op, message):
    def body(prog, env):
        yield make_op(prog.base, env.kernel.params.words_per_page)

    with pytest.raises(ProcessCrashed) as crash:
        run_one(body)
    assert isinstance(crash.value.__cause__, ExecutionError)
    assert message in str(crash.value.__cause__)


def test_only_page_crossing_accesses_are_split(monkeypatch):
    split = []
    original = ThreadProcess._split_runs

    def spy(self, va, n):
        runs = original(self, va, n)
        split.append(runs)
        return runs

    monkeypatch.setattr(ThreadProcess, "_split_runs", spy)

    def body(prog, env):
        wpp = env.kernel.params.words_per_page
        yield Write(prog.base, np.arange(wpp, dtype=np.int64))  # a whole page
        yield Read(prog.base + wpp - 1, 1)  # its last word
        assert split == []
        yield Write(prog.base + wpp - 2, np.array([5, 6, 7]))
        data = yield Read(prog.base + wpp - 3, 2 * wpp)
        return [int(data[0]), int(data[3]), len(data)], wpp, prog.base // wpp

    result, wpp, page = run_one(body).thread_results[0]
    assert result == [wpp - 3, 7, 2 * wpp]
    # (vpage, offset, words) of every run
    assert split == [
        [(page, wpp - 2, 2), (page + 1, 0, 1)],
        [(page, wpp - 3, 3), (page + 1, 0, wpp), (page + 2, 0, wpp - 3)],
    ]


#: sha256 of ``record_spec(...)[0].to_bytes()`` taken at the commit before
#: the dispatch table: the recorder, which overrides ``interpret``,
#: ``_resume`` and ``_throw``, still sees and logs every op
RECORDED_AT_PARENT = {
    ("private", 16):
        "bd623ac8d6399c4863a241fb5a489c16d1563ab44391e88ee653a6426cac22b8",
    ("uniform", 6):
        "32bc47a27dcd775fa302e1d6f9ffc0232530d89409e42cbbfe8c7583a0bed331",
}


@pytest.mark.parametrize("sharing, pages", sorted(RECORDED_AT_PARENT))
def test_recording_is_byte_identical_to_the_parent_commit(sharing, pages):
    phase = PhaseSpec(
        ops=40, mix={"read": 0.6, "write": 0.4}, compute_ns=150.5)
    spec = WorkloadSpec(
        name=f"pin-{sharing}", seed=14, threads=4, machine=4,
        words_per_op=8, sharing=sharing, pages=pages, phases=(phase, phase),
    ).validate()
    bundle, _result = record_spec(bench_spec_for(spec))
    assert bundle.n_ops == 680
    digest = hashlib.sha256(bundle.to_bytes()).hexdigest()
    assert digest == RECORDED_AT_PARENT[sharing, pages]
