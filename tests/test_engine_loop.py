"""Differential tests: the op path's inlined copies vs their references.

Three rules are spelled twice on the op path, once where they are kept
and once inline where every op pays for a frame:

* ``Engine.run`` pops each event itself; ``Engine.step`` is the rule.
* ``OpProcess._wake`` -- the one op path of the PLATINUM executor, the
  Sequent baseline and the trace replayer -- resumes the generator and,
  for an op of the class's cost table, takes its start time, costs it
  and pushes its own wake-up in one frame; ``Process._wake`` ->
  ``_resume`` -> ``interpret`` -> ``_run`` (``_begin``, the cost
  function, ``_commit``) is the chain it stands for, what an op subclass
  takes, and what the reference classes below set as their ``_wake``.
* ``OpProcess._commit`` pushes a future wake-up onto the heap itself;
  ``Engine.schedule_at`` is the rule.

Each copy is driven here side by side with its reference over random
inputs and must leave the same observable state, in the style of
tests/test_cost_run.py.
"""

import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.sequent as sequent_mod
import repro.point as point_mod
import repro.replay.recorder as recorder_mod
import repro.replay.replayer as replayer_mod
import repro.runtime.run as run_mod
from repro import make_kernel, run_program
from repro.replay import record_spec, replay_trace
from repro.runtime import (
    Broadcast,
    Compute,
    ExecutionError,
    FetchAdd,
    GetTime,
    Migrate,
    Program,
    ProgramAPI,
    Read,
    RecvPort,
    SendPort,
    TestAndSet,
    ThreadProcess,
    WaitNewer,
    Write,
)
from repro.machine.interrupts import ProcessorState
from repro.runtime.executor import OpProcess
from repro.sim import Engine, SimulationError
from repro.sim.process import Delay, Op, Process, ProcessCrashed, WaitFor
from repro.sim.sync import SimEvent
from repro.telemetry import SimTimeSampler
from repro.workloads.generate import bench_spec_for, run_spec
from repro.workloads.spec import PhaseSpec, WorkloadSpec

from tests.conftest import machine_state

# -- Engine.run against a loop over Engine.step ---------------------------------


def stepped_run(engine, until=None, max_events=None):
    """``Engine.run``'s contract spelled over ``Engine.step``: the loop
    as it was before ``run`` popped inline, limit rounded as documented."""
    engine._running = True
    engine._stopped = False
    executed = 0
    limit = None if until is None else int(round(until))
    try:
        while engine.pending_events and not engine._stopped:
            when = engine.now if engine._ready else engine._queue[0][0]
            if limit is not None and when > limit:
                break
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "possible runaway event loop"
                )
            engine.step()
            executed += 1
        if limit is not None and not engine._stopped and limit > engine.now:
            engine._now = limit
    finally:
        engine._running = False
    return executed


def scripted_engine(seed: int, fast_path: bool, log: list) -> Engine:
    """An engine whose events schedule children, switch tie perturbation
    on and off and stop the run, each chosen from ``seed`` and the
    event's label alone: two engines that run the same events in the
    same order do the same things.  ``log`` gets every event and action."""
    engine = Engine(fast_path=fast_path)
    budget = [120]

    def event(label):
        def fire():
            log.append((label, engine.now))
            rng = random.Random(f"{seed}/{label}")
            for child in range(rng.choice((0, 1, 1, 2, 3))):
                if budget[0] <= 0:
                    break
                budget[0] -= 1
                delay = rng.choice((0, 0, 1, 2, 5, 7.5, 40))
                engine.schedule(delay, event(f"{label}.{child}"))
            roll = rng.random()
            if roll < 0.08:
                log.append(("perturb", label))
                engine.perturb_ties(random.Random(f"{seed}/{label}/ties"))
            elif roll < 0.16:
                log.append(("unperturb", label))
                engine.perturb_ties(None)
            elif roll < 0.20:
                log.append(("stop", label))
                engine.stop()
        return fire

    rng = random.Random(seed)
    for root in range(rng.randrange(1, 6)):
        engine.schedule(rng.choice((0, 0, 3, 10)), event(str(root)))
    return engine


ACTIONS = ("perturb", "unperturb", "stop")

#: one ``run`` call: (until, max_events); a fractional until is rounded
RUN_CALL = st.tuples(
    st.one_of(st.none(), st.integers(0, 200),
              st.integers(0, 200).map(lambda n: n + 0.5),
              st.integers(0, 200).map(lambda n: n + 0.6)),
    st.one_of(st.none(), st.integers(0, 40)),
)


def drive(engine, runner, calls) -> list:
    """Each call's outcome and the engine's state after it."""
    seen = []
    for until, max_events in calls:
        try:
            outcome = runner(engine, until=until, max_events=max_events)
        except SimulationError as exc:
            outcome = str(exc)
        seen.append((outcome, engine.now, engine.events_executed,
                     engine.pending_events))
    return seen


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), fast_path=st.booleans(),
       calls=st.lists(RUN_CALL, min_size=1, max_size=6))
def test_run_pops_in_steps_order(seed, fast_path, calls):
    calls = calls + [(None, None)]  # then drain what is left
    inline_log, stepped_log = [], []
    inline = drive(scripted_engine(seed, fast_path, inline_log),
                   Engine.run, calls)
    stepped = drive(scripted_engine(seed, fast_path, stepped_log),
                    stepped_run, calls)
    assert inline_log == stepped_log
    assert inline == stepped


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32),
       calls=st.lists(RUN_CALL, min_size=1, max_size=6))
def test_fast_path_changes_no_order_with_ties_toggled(seed, calls):
    """The same random schedules, perturbation switched on and off
    mid-instant included, run in one order with and without the fast
    path."""
    calls = calls + [(None, None)]
    fast_log, heap_log = [], []
    fast = drive(scripted_engine(seed, True, fast_log), Engine.run, calls)
    heap = drive(scripted_engine(seed, False, heap_log), Engine.run, calls)
    assert fast_log == heap_log
    assert fast == heap


def test_scripted_schedules_reach_every_case():
    """The random schedules above are not vacuous: they perturb ties,
    stop runs and hit the event budget."""
    met = set()
    for seed in range(200):
        log = []
        engine = scripted_engine(seed, True, log)
        outcome = drive(engine, Engine.run, [(10.5, 3), (None, None)])
        met |= {entry[0] for entry in log if entry[0] in ACTIONS}
        if isinstance(outcome[0][0], str):
            met.add("max_events")
    assert met == set(ACTIONS) | {"max_events"}


def test_run_until_compares_against_the_rounded_limit():
    """``run(until=10.6)`` moves the clock to 11, so an event due at 11
    is due: it runs, on this call and not never."""
    engine = Engine()
    seen = []
    engine.schedule_at(11, lambda: seen.append(engine.now))
    engine.schedule_at(12, lambda: seen.append(engine.now))
    assert engine.run(until=10.6) == 1
    assert seen == [11]
    assert engine.now == 11
    assert engine.run(until=10.6) == 0  # 12 is after the limit
    assert engine.now == 11


# -- OpProcess._wake against Process._wake -> _resume -> interpret ------------------


class ReferenceThreadProcess(ThreadProcess):
    """A thread process on the reference ``Process._wake`` chain."""

    __slots__ = ()
    _wake = Process._wake


class ReferenceSequentThreadProcess(sequent_mod.SequentThreadProcess):
    """The Sequent's reference: the same chain."""

    __slots__ = ()
    _wake = Process._wake


class TaggedRead(Read):
    """An op subclass: runs as its nearest known base, through
    ``interpret``."""


class Bogus(Op):
    """An op no handler knows."""

    def __repr__(self) -> str:
        return "Bogus()"


def every_op(prog, env):
    """Thread 0: every op type the executor knows, in turn; without
    ports and migration (``prog.ports`` false), every op the Sequent
    knows."""
    base = prog.base
    yield Write(base, np.arange(8, dtype=np.int64))
    data = yield Read(base + 2, 3)
    tagged = yield TaggedRead(base, 2)
    old = yield TestAndSet(base + 7, 9)
    new = yield FetchAdd(base + 6, 5)
    yield Compute(12.5)
    now = yield GetTime()
    yield Delay(7.5)
    got = yield WaitFor(prog.event)
    yield WaitNewer(prog.channel, 0)  # fired with the event: satisfied
    yield WaitNewer(prog.channel, 1)  # waits for the second fire
    msg = []
    if prog.ports:
        yield Migrate(1)
        msg = yield RecvPort(prog.port)
    try:
        yield Read(base, 0)  # the handler raises ExecutionError
    except ExecutionError as exc:
        caught = str(exc)
    try:
        yield Bogus()  # no handler: interpret raises ExecutionError
    except ExecutionError as exc:
        caught += " / " + str(exc)
    if prog.ports:
        yield SendPort(prog.reply, np.arange(2, dtype=np.int64))
    return (list(map(int, data)), list(map(int, tagged)), old, new, now,
            got, list(map(int, msg)), caught)


def helper(prog, env):
    """Thread 1: fires what thread 0 waits on, once it waits, then takes
    its reply (it waits for that)."""
    yield Compute(2e6)
    prog.event.fire("fired")
    prog.channel.fire()
    yield Compute(2e6)
    prog.channel.fire()
    if not prog.ports:
        return []
    yield SendPort(prog.port, np.arange(3, dtype=np.int64))
    reply = yield RecvPort(prog.reply)
    return list(map(int, reply))


def crashes(prog, env):
    yield Compute(5)
    yield Write(prog.base, 1)
    raise ValueError("the body's own error")


def handler_error_escapes(prog, env):
    yield Compute(5)
    yield Compute(-1.0)  # ExecutionError, not caught by the body


def stop_iteration_at_once(prog, env):
    return "before any op"
    yield  # a generator that finishes on its first send


def get_time_chain(prog, env):
    """15,000 ops: a synchronous GetTime, then a committing Compute."""
    total = 0
    for _ in range(7_500):
        total += yield GetTime()
        yield Compute(1)
    return total


class Scripted(Program):
    """Thread 0 runs ``body``; thread 1, if given, runs ``other``.
    ``ports`` false: no ports (the Sequent has none)."""

    name = "scripted"

    def __init__(self, body, other=None, ports=True):
        self.body, self.other, self.ports = body, other, ports

    def setup(self, api):
        arena = api.arena(4, label="data")
        self.base = arena.base_va
        self.event = SimEvent(api.engine, "go")
        self.channel = Broadcast(api.engine, "chan")
        if self.ports:
            self.port = api.port(home_module=0)  # thread 1 to thread 0
            self.reply = api.port(home_module=1)  # and back
        api.spawn(0, lambda env: self.body(self, env), name="t0")
        if self.other is not None:
            api.spawn(1, lambda env: self.other(self, env), name="t1")


def churn(prog, env, tagged=False):
    """Reads, writes, atomics and think time over the shared arena, from
    a per-thread seed: with two of these the threads fault, shoot each
    other down and pay IPI penalties.  ``tagged`` yields op subclasses,
    which run through ``interpret``."""
    kinds = TAGGED if tagged else (Read, Write, FetchAdd, TestAndSet,
                                   Compute)
    read, write, fetch_add, test_and_set, compute = kinds
    wpp = env.kernel.params.words_per_page
    rng = random.Random(env.tid)
    total = 0
    for _ in range(150):
        va = prog.base + rng.randrange(4 * wpp - 8)
        roll = rng.random()
        if roll < 0.35:
            total += int((yield read(va, 8)).sum())
        elif roll < 0.7:
            yield write(va, np.arange(8, dtype=np.int64))
        elif roll < 0.8:
            total += yield fetch_add(va, 1)
        elif roll < 0.85:
            total += yield test_and_set(va, 3)
        else:
            yield compute(rng.random() * 2_000)
    return total


class TaggedWrite(Write):
    pass


class TaggedFetchAdd(FetchAdd):
    pass


class TaggedTestAndSet(TestAndSet):
    pass


class TaggedCompute(Compute):
    pass


TAGGED = (TaggedRead, TaggedWrite, TaggedFetchAdd, TaggedTestAndSet,
          TaggedCompute)


def lockstep(prog, env):
    """Equal think steps on both processors: every wake-up ties with the
    other thread's, and each thread notes the turns it ran, so the order
    ties were broken in is part of the outcome."""
    turns = []
    for _ in range(1_000):
        yield Compute(1_000)
        prog.turns = getattr(prog, "turns", 0) + 1
        turns.append(prog.turns)
    return turns


def observe(monkeypatch, cls, body, other=None, ties=None) -> tuple:
    """Run ``body`` (and ``other``) with ``cls`` as the thread process:
    the outcome, the protocol trace and the machine's state.  ``ties``
    perturbs the engine's tie order from the start, and
    "restored" switches it off and on again every 0.1 ms (on the
    lockstep threads' wake-up times), each time with wake-ups already
    due at that instant."""
    monkeypatch.setattr(run_mod, "ThreadProcess", cls)
    kernel = make_kernel(n_processors=2, defrost_enabled=False, trace=True)
    engine = kernel.engine
    if ties is not None:
        engine.perturb_ties(random.Random(1989))
    if ties == "restored":
        for k in range(1, 30):
            rng = None if k % 2 else random.Random(k)
            engine.schedule_at(k * 100_000,
                               lambda rng=rng: engine.perturb_ties(rng))
    try:
        result = run_program(kernel, Scripted(body, other))
        outcome = ("ok", result.thread_results)
    except ProcessCrashed as crash:
        cause = crash.__cause__
        outcome = ("crashed", str(crash), type(cause).__name__, str(cause))
    trace = [(e.time, e.kind.value, e.cpage_index, e.processor)
             for e in kernel.tracer.events]
    return outcome, trace, machine_state(kernel)


def capture(monkeypatch, name, cls) -> list:
    """Build ``sequent_mod.<name>`` as ``cls``; returns what was built."""
    made = []

    def make(*args):
        made.append(cls(*args))
        return made[-1]

    monkeypatch.setattr(sequent_mod, name, make)
    return made


def observe_sequent(monkeypatch, cls, body, other=None) -> tuple:
    """``observe`` on the Sequent baseline: the outcome, the engine, the
    cpus and the snoopy bus's counters."""
    processes = capture(monkeypatch, "SequentThreadProcess", cls)
    machine = capture(monkeypatch, "SequentMachine",
                      sequent_mod.SequentMachine)
    try:
        result = sequent_mod.run_on_sequent(
            Scripted(body, other, ports=False), n_processors=2)
        outcome = ("ok", result.thread_results)
    except ProcessCrashed as crash:
        cause = crash.__cause__
        outcome = ("crashed", str(crash), type(cause).__name__, str(cause))
    (machine,) = machine
    engine, bus = machine.engine, machine.bus
    cpus = [s.busy_until for s in machine.interrupt_states]
    counters = (bus.reads, bus.writes, bus.bus.busy_until,
                bus.bus.busy_time, bus.bus.wait_time, bus.bus.requests)
    return (outcome, engine.now, engine.events_executed,
            engine.pending_events, cpus, counters)


BODIES = [
    (every_op, helper),
    (crashes, None),
    (handler_error_escapes, None),
    (stop_iteration_at_once, None),
    (get_time_chain, None),
]
BODY_IDS = ["every-op", "crash", "handler-error", "stop-iteration", "chain"]


@pytest.mark.parametrize("body, other", BODIES, ids=BODY_IDS)
def test_fused_wake_matches_resume_then_interpret(monkeypatch, body, other):
    assert ReferenceThreadProcess._wake is Process._wake
    assert ThreadProcess._wake is OpProcess._wake
    fused = observe(monkeypatch, ThreadProcess, body, other)
    reference = observe(monkeypatch, ReferenceThreadProcess, body, other)
    assert fused == reference
    if body is every_op:
        (_status, (mine, theirs)), *_rest = fused
        assert "access of 0 words" in mine[-1]
        assert "unsupported operation" in mine[-1]
        assert mine[5] == "fired" and theirs == [0, 1]
    if body is get_time_chain:
        assert fused[0] == ("ok", [sum(range(7_500))])


@pytest.mark.parametrize("body, other", BODIES, ids=BODY_IDS)
def test_sequent_fused_wake_matches_resume_then_interpret(
        monkeypatch, body, other):
    """The Sequent runs the same op path: fused, and through the
    reference chain, the same outcome, engine, cpus and bus."""
    sequent = sequent_mod.SequentThreadProcess
    assert ReferenceSequentThreadProcess._wake is Process._wake
    assert sequent._wake is OpProcess._wake
    fused = observe_sequent(monkeypatch, sequent, body, other)
    monkeypatch.undo()
    reference = observe_sequent(monkeypatch, ReferenceSequentThreadProcess,
                                body, other)
    assert fused == reference
    if body is every_op:
        (_status, (mine, theirs)), *_rest = fused
        assert mine[:2] == ([2, 3, 4], [0, 1])
        assert "access of 0 words" in mine[-1]
        assert "unsupported operation" in mine[-1]
        assert mine[5] == "fired" and theirs == []
        assert fused[-1][1] > 0  # the bus carried the writes
    if body is get_time_chain:
        assert fused[0] == ("ok", [sum(range(7_500))])


@pytest.mark.parametrize("ties", [None, "perturbed", "restored"])
@pytest.mark.parametrize("body", [churn, lockstep])
def test_fused_push_matches_commit_with_ties_perturbed(monkeypatch, body,
                                                      ties):
    """The wake-up ``_wake`` pushes itself is the one ``commit`` pushes
    or leaves to ``schedule_at``: ties unperturbed, perturbed, and
    perturbed then restored, on threads that fault and shoot each other
    down and on threads whose every wake-up is a tie."""
    fused = observe(monkeypatch, ThreadProcess, body, body, ties)
    reference = observe(monkeypatch, ReferenceThreadProcess, body, body,
                        ties)
    assert fused == reference
    status, _results = fused[0]
    assert status == "ok"
    if body is churn:
        assert all(received for _pending, received, _sent
                   in fused[2]["interrupts"])


def test_an_op_subclass_runs_as_its_base_through_interpret(monkeypatch):
    """The same program with every op an op subclass (``interpret`` ->
    ``_run``) and with the exact types (the fused ``_wake``): the same
    times, trace, counters and interrupt penalties."""
    exact = observe(monkeypatch, ThreadProcess, churn, churn)
    tagged = observe(
        monkeypatch, ThreadProcess,
        lambda prog, env: churn(prog, env, tagged=True),
        lambda prog, env: churn(prog, env, tagged=True))
    assert tagged == exact
    assert all(received for _pending, received, _sent
               in exact[2]["interrupts"])


def test_migrate_occupies_the_new_processors_cpu(monkeypatch):
    """``Migrate`` keeps its handler: it moves the thread between its
    start and its commit, so the move and what follows occupy the new
    processor's row, and the old one is left as it was."""
    def body(prog, env):
        yield Compute(500)
        yield Migrate(1)
        moved = yield GetTime()
        yield Compute(700)
        return moved

    outcome, _trace, state = observe(monkeypatch, ThreadProcess, body)
    (_status, (moved,)) = outcome
    now = state["engine"]["now"]
    assert state["busy_until"] == [500, now]
    assert moved > 500 and now == moved + 700


def mover(prog, env):
    """Moved by the kernel from inside its body, behind the executor."""
    yield Compute(1_000)
    env.kernel.threads.migrate(env.thread, 1)
    yield Compute(500)
    return (yield GetTime())


def sitter(prog, env):
    yield Compute(2_000)


@pytest.mark.parametrize("cls", [ThreadProcess, ReferenceThreadProcess])
def test_a_thread_moved_in_its_body_occupies_its_new_processor(
        monkeypatch, cls):
    """The op path reads the row of ``thread.processor`` at each op, so
    a thread the kernel moves between two of its ops waits for the
    thread already on its new processor, and leaves its old row as its
    last op there left it."""
    outcome, _trace, state = observe(monkeypatch, cls, mover, sitter)
    assert outcome == ("ok", [2_500, None])
    assert state["busy_until"] == [1_000, 2_500]
    assert state["engine"]["now"] == 2_500


def test_a_finished_thread_is_not_woken_again():
    """The fused ``_wake`` refuses a finished process as ``_resume`` does."""
    kernel = make_kernel(n_processors=2, defrost_enabled=False)
    api = ProgramAPI(kernel)
    Scripted(stop_iteration_at_once).setup(api)
    (spec,) = api.thread_specs
    proc = ThreadProcess(kernel, spec.thread, spec.body)
    proc.start()
    kernel.engine.run()
    assert proc.result == "before any op"
    for wake in (proc._wake, lambda: Process._wake(proc)):
        with pytest.raises(SimulationError, match="resumed after finishing"):
            wake()


# -- _commit's inline push against Engine.schedule_at ------------------------------


def engine_state(engine) -> tuple:
    return (list(engine._queue), list(engine._ready), engine._seq,
            None if engine._tie_rng is None else engine._tie_rng.getstate())


@settings(max_examples=300, deadline=None)
@given(now=st.integers(0, 1000), queued=st.lists(st.integers(0, 30),
                                                  max_size=6),
       ties=st.sampled_from(["off", "perturbed"]),
       end=st.integers(-5, 40), seed=st.integers(0, 2**16))
def test_commit_pushes_as_schedule_at_would(now, queued, ties, end, seed):
    engine = Engine()
    engine.run(until=now)  # empty queue: only moves the clock
    if ties != "off":
        engine.perturb_ties(random.Random(seed))
    for delay in queued:
        engine.schedule(delay, lambda: None)
    end += now
    waker = lambda: None  # noqa: E731
    proc = types.SimpleNamespace(
        engine=engine, thread=types.SimpleNamespace(processor=0),
        rows=[ProcessorState()], _wake=waker, _wake_value=None)
    before = engine_state(engine)
    rng_state = None if engine._tie_rng is None else \
        engine._tie_rng.getstate()

    OpProcess._commit(proc, end, "value")
    inline = engine_state(engine)

    engine._queue[:] = before[0]
    engine._ready.clear()
    engine._ready.extend(before[1])
    engine._seq = before[2]
    if rng_state is not None:
        engine._tie_rng.setstate(rng_state)
    engine.schedule_at(max(end, now), waker)
    assert inline == engine_state(engine)
    assert proc.rows[0].busy_until == max(end, now, 0)
    assert proc._wake_value == "value"


# -- the guard: no driver leaves the one op path ------------------------------------


def op_process_classes():
    seen, todo = [], [OpProcess]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


#: the thread drivers: each runs every op through ``OpProcess._wake``
DRIVERS = (ThreadProcess, sequent_mod.SequentThreadProcess,
           replayer_mod.ReplayThreadProcess,
           replayer_mod.FastReplayThreadProcess)


def test_no_driver_under_src_redefines_the_resume_path():
    # the fused _wake spells _resume and interpret inline, so a
    # production subclass that redefined either (or _throw, or _wake
    # itself) would leave the one op path; recording wraps the body
    # instead (replay/recorder.py's _recorded)
    classes = [cls for cls in op_process_classes()
               if cls.__module__.startswith("repro.")]
    assert set(DRIVERS) <= set(classes)
    for cls in classes:
        below = cls.__mro__[:cls.__mro__.index(OpProcess)]
        for klass in below:
            assert not {"_wake", "_resume", "_throw", "interpret",
                        "_begin", "_commit"} & set(vars(klass)), klass
        assert cls._wake is OpProcess._wake, cls
    assert not hasattr(recorder_mod, "RecordingThreadProcess")
    assert "__init_subclass__" not in vars(OpProcess)


def test_live_recorded_and_replayed_runs_agree(monkeypatch):
    """One spec live, recording and replayed: the fused op path over a
    generator, over the recorder's wrapped generator and over the replay
    cursor gives the same event count and sampler rows."""
    spec = WorkloadSpec(
        name="guard", seed=7, threads=4, machine=4, words_per_op=8,
        phases=(PhaseSpec(ops=30, mix={"read": 0.5, "write": 0.5},
                          access="uniform", compute_ns=100.0),),
        sharing="uniform", pages=6,
    ).validate()
    samplers = []
    build = point_mod.point_kernel

    def sampled_kernel(*args, **kwargs):
        kernel = build(*args, **kwargs)
        sampler = SimTimeSampler(kernel, period_ms=0.005)
        sampler.start()
        samplers.append(sampler)
        return kernel

    for module in (point_mod, recorder_mod, replayer_mod):
        monkeypatch.setattr(module, "point_kernel", sampled_kernel)
    kernel, _result = run_spec(spec)
    live = (kernel.engine.events_executed, samplers.pop().samples)
    bundle, recorded_run = record_spec(bench_spec_for(spec))
    recorded = (recorded_run.kernel.engine.events_executed,
                samplers.pop().samples)
    replay = replay_trace(bundle, mode="exact")
    replayed = (replay.events_executed, samplers.pop().samples)
    assert live == recorded == replayed
    assert len(live[1]) > 5  # the sampler saw the run
