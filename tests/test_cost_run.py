"""Differential test: ``ThreadProcess._cost_run`` vs the reference path.

``_cost_run`` spells ``MMU.translate``'s ATC hit and ATC miss in place
-- one miss arm for the lookup before a fault and the retry after it,
with the three-fault limit of the reference loop -- and costs *every*
reference -- hit, refill or post-fault retry -- in one inline spelling
of ``Machine.access`` + ``FifoResource.occupy``.  Live runs
and replays both go through it, so live == replay no longer says
anything about that arithmetic; this test does.  Twin kernels receive
the same random string of references and bus/port reservations, one
through ``_cost_run`` and one through the reference methods
(``MMU.translate``, ``Kernel.fault``, ``Machine.access``), and must
stay in the same state after every step -- on each topology, with
threads migrating between steps, and with a one-entry ATC where every
reload evicts.
"""

import dataclasses
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import make_kernel
from repro.machine.pmap import Rights
from repro.policy.fixed import NeverCachePolicy, TimestampFreezePolicy
from repro.profile import AccessProbe
from repro.runtime import ops
from repro.runtime.executor import ExecutionError, ThreadProcess

N_PROCESSORS = 5  # more than one switch: remote routes have two hops
N_PAGES = 5
ATC_ENTRIES = 3  # fewer than the pages: refills and LRU evictions happen

POLICIES = {
    # every mapping remote except on the page's home node
    "never": NeverCachePolicy,
    # replicas, read-only mappings, migrations and frozen pages
    "freeze": TimestampFreezePolicy,
}


class LoggingProbe(AccessProbe):
    """An AccessProbe that also keeps every run it was handed."""

    __slots__ = ("log",)

    def __init__(self, cpages) -> None:
        super().__init__(cpages)
        self.log = []

    def note(self, cpage_index, proc, write, remote, words,
             queue_delay) -> None:
        self.log.append(
            (cpage_index, proc, write, remote, words, queue_delay)
        )
        super().note(cpage_index, proc, write, remote, words, queue_delay)


#: the interconnects: two-hop routes, one shared bus, and remote
#: references with an empty route
TOPOLOGIES = ("butterfly", "bus", "uniform")


def build(policy: str, topology: str = "butterfly",
          atc_entries: int = ATC_ENTRIES):
    kernel = make_kernel(
        n_processors=N_PROCESSORS, policy=POLICIES[policy](),
        defrost_enabled=False, atc_entries=atc_entries,
        frames_per_module=32, topology=topology,
    )
    kernel.coherent.reference_counting = True
    probe = LoggingProbe.install(kernel.coherent)
    aspace = kernel.vm.create_address_space()
    obj = kernel.vm.create_object(N_PAGES, label="shared")
    kernel.vm.bind(aspace, 0, obj, rights=Rights.WRITE)
    threads = [
        ThreadProcess(
            kernel, kernel.threads.spawn(aspace.asid, p, name=f"t{p}"),
            None,
        )
        for p in range(N_PROCESSORS)
    ]
    return kernel, probe, threads


def reference_cost_run(process, vpage, n, write, t):
    """What a reference costs, spelled with the reference methods only."""
    kernel, thread = process.kernel, process.thread
    proc = thread.processor
    mmu = kernel.machine.mmus[proc]
    for _attempt in range(3):
        result = mmu.translate(thread.aspace_id, vpage, write)
        t += int(round(result.cost))
        entry = result.entry
        if entry is not None:
            outcome = kernel.machine.access(proc, entry.frame, n, write, t)
            if outcome.remote and kernel.coherent.reference_counting:
                kernel.coherent.note_remote_access(
                    entry.cpage_index, proc, n
                )
            kernel.coherent.access_probe.note(
                entry.cpage_index, proc, write, outcome.remote,
                outcome.words, outcome.queue_delay,
            )
            return outcome.completion, entry
        t = kernel.fault(proc, thread.aspace_id, vpage, write, t).completion
    raise AssertionError("no translation after repeated faults")


def describe(entry):
    return (
        entry.vpage, entry.frame.module_index, entry.frame.frame_index,
        int(entry.rights), entry.remote, entry.referenced, entry.modified,
        entry.cpage_index,
    )


def snapshot(kernel, probe):
    machine = kernel.machine
    return {
        "mmus": [
            (
                # ATC contents in LRU order, with the R/M bits
                [(key, describe(e)) for key, e in mmu.atc._entries.items()],
                mmu.atc.hits, mmu.atc.misses, mmu.atc.flushes, mmu.faults,
                [
                    sorted(describe(e) for e in pmap._entries.values())
                    for pmap in mmu._pmaps.values()
                ],
            )
            for mmu in machine.mmus
        ],
        "words": (
            list(machine.local_words), list(machine.remote_words),
            list(machine.remote_write_words), list(machine.queue_delay_ns),
        ),
        "modules": [
            (m.words_served, m.accesses_served, dataclasses.astuple(m.bus))
            for m in machine.modules
        ],
        "ports": [
            dataclasses.astuple(r) for r in machine.topology.all_resources()
        ],
        "probe": (probe.log, probe.counts),
        "cpages": [
            (c.stats.remote_access_words, dict(c.remote_counts))
            for c in kernel.coherent.cpages
        ],
        "report": dataclasses.asdict(kernel.report()),
    }


#: (thread, vpage, words, write?, ns since the previous step); thread
#: ``i`` starts on processor ``i``
ACCESS = st.tuples(
    st.integers(0, N_PROCESSORS - 1),
    st.integers(0, N_PAGES - 1),
    st.integers(1, 1024),
    st.booleans(),
    # up to 3 ms apart: both sides of the 10 ms freeze window occur
    st.integers(0, 3_000_000),
)

#: reserve a module bus (and the switch ports from ``src`` to it) for
#: ``ns`` ahead of the next access, so that access finds them occupied
OCCUPY = st.tuples(
    st.integers(0, N_PROCESSORS - 1),
    st.integers(0, N_PROCESSORS - 1),
    st.integers(1, 200_000),
)


#: move a thread to another processor, as ``kernel.threads.migrate``
#: does under the executor (whose per-processor tables must follow)
MIGRATE = st.tuples(
    st.integers(0, N_PROCESSORS - 1),
    st.integers(0, N_PROCESSORS - 1),
)


def occupy(kernel, src, module, ns, t):
    machine = kernel.machine
    if src != module:
        for port in machine.topology.route(src, module):
            port.occupy(t, ns)
    machine.modules[module].bus.occupy(t, ns)


def run_string(policy, steps, topology="butterfly",
               atc_entries=ATC_ENTRIES) -> Counter:
    """Feed ``steps`` to twin kernels, comparing after every step;
    returns how often each kind of reference was met."""
    kernel_a, probe_a, threads_a = build(policy, topology, atc_entries)
    kernel_b, probe_b, threads_b = build(policy, topology, atc_entries)
    assert kernel_a.params.words_per_page == 1024
    met = Counter()
    t = 0
    for step in steps:
        if len(step) == 2:
            i, to = step
            for kernel, threads in ((kernel_a, threads_a),
                                    (kernel_b, threads_b)):
                kernel.threads.migrate(threads[i].thread, to)
            met["migrated"] += to != i
            continue
        if len(step) == 3:
            occupy(kernel_a, *step, t)
            occupy(kernel_b, *step, t)
            continue
        i, vpage, n, write, dt = step
        t += dt
        process = threads_a[i]
        proc = process.thread.processor
        atc = kernel_a.machine.mmus[proc].atc._entries
        key = (process.thread.aspace_id, vpage)
        cached = atc.get(key)
        others = [k for k in atc if k != key]
        waited = sum(kernel_a.machine.queue_delay_ns)
        faults = kernel_a.coherent.fault_handler.fault_count
        done_a, entry_a = process._cost_run(vpage, n, write, t)
        done_b, entry_b = reference_cost_run(
            threads_b[i], vpage, n, write, t
        )
        assert done_a == done_b
        assert describe(entry_a) == describe(entry_b)
        assert snapshot(kernel_a, probe_a) == snapshot(kernel_b, probe_b)
        if kernel_a.coherent.fault_handler.fault_count > faults:
            # the retry after the fault goes through the costing block
            met["fault, remote" if entry_a.remote else "fault, local"] += 1
            if any(k not in atc for k in others):
                met["fault, reload evicts"] += 1
        if cached is None:
            met["atc miss"] += 1
        elif cached.rights.allows(write):
            met["atc hit"] += 1
            met["hit, remote" if entry_a.remote else "hit, local"] += 1
            if sum(kernel_a.machine.queue_delay_ns) > waited:
                met["hit, queued"] += 1
        else:
            met["rights-restricted entry"] += 1
    kernel_a.check_invariants()
    return met


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    policy=st.sampled_from(sorted(POLICIES)),
    topology=st.sampled_from(TOPOLOGIES),
    atc_entries=st.sampled_from([1, ATC_ENTRIES]),
    steps=st.lists(st.one_of(ACCESS, OCCUPY, MIGRATE), max_size=60),
)
def test_cost_run_matches_translate_plus_access(policy, topology,
                                                atc_entries, steps):
    run_string(policy, steps, topology, atc_entries)


#: (topology, ATC entries) of the seeded strings
CONFIGS = (
    ("butterfly", ATC_ENTRIES), ("bus", ATC_ENTRIES),
    ("uniform", ATC_ENTRIES), ("butterfly", 1),
)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_seeded_string_meets_every_kind_of_reference(policy):
    """The comparison is only as good as the cases it is fed: a long
    seeded string must take the inlined path on local and remote frames,
    with and without queueing, and fall off it both ways, on threads
    that have migrated, on every topology; a one-entry ATC must evict on
    the post-fault reload."""
    for topology, atc_entries in CONFIGS:
        met = seeded_string(policy, topology, atc_entries)
        wanted = {"atc miss", "atc hit", "hit, remote", "hit, queued",
                  "fault, remote", "fault, local", "migrated"}
        if policy == "freeze":
            wanted.add("hit, local")
        if atc_entries == 1:
            wanted.add("fault, reload evicts")
        elif policy == "freeze":
            # a one-entry ATC seldom still holds a read-only copy when
            # the same page is written
            wanted.add("rights-restricted entry")
        assert wanted <= set(met), (topology, atc_entries, met)


def seeded_string(policy, topology, atc_entries) -> Counter:
    """600 steps from a fixed seed -- accesses, reservations and a few
    migrations -- fed through ``run_string``."""
    rng = random.Random(1989)
    steps = []
    for _ in range(600):
        if rng.random() < 0.03:
            steps.append((rng.randrange(N_PROCESSORS),
                          rng.randrange(N_PROCESSORS)))
        elif rng.random() < 0.2:
            steps.append((
                rng.randrange(N_PROCESSORS), rng.randrange(N_PROCESSORS),
                rng.randrange(1, 200_000),
            ))
        else:
            steps.append((
                rng.randrange(N_PROCESSORS), rng.randrange(N_PAGES),
                rng.randrange(1, 1025), rng.random() < 0.3,
                rng.randrange(0, 100_000),
            ))
    return run_string(policy, steps, topology, atc_entries)


def script_faults(kernel, script) -> None:
    """Make ``kernel.fault`` follow ``script``, one word per fault:
    ``"real"`` handles it, ``"nothing"`` installs no translation,
    ``"read-only"`` handles it and leaves the entry read-only, and
    ``"cached"`` handles it and puts the entry in the ATC too."""
    real = kernel.fault
    steps = iter(script)

    def fault(proc, aspace_id, vpage, write, t):
        how = next(steps)
        if how == "nothing":
            return SimpleNamespace(completion=t + 1_000)
        outcome = real(proc, aspace_id, vpage, write, t)
        if how == "read-only":
            kernel.machine.mmus[proc]._pmaps[aspace_id].restrict(
                vpage, Rights.READ)
        elif how == "cached":
            mmu = kernel.machine.mmus[proc]
            mmu.atc._entries[(aspace_id, vpage)] = \
                mmu._pmaps[aspace_id]._entries[vpage]
        return outcome

    kernel.fault = fault


@pytest.mark.parametrize("script", [
    ("nothing", "real"), ("read-only", "real"), ("cached",),
])
def test_a_retry_off_the_pmap_hit_arm_takes_the_reference_loop(script):
    """After a fault the retry does what ``MMU.translate`` would: a
    fault that installed nothing, or only a read-only entry, faults
    again, and an entry the ATC already holds is an ATC hit."""
    kernel_a, probe_a, threads_a = build("never")
    kernel_b, probe_b, threads_b = build("never")
    script_faults(kernel_a, script)
    script_faults(kernel_b, script)
    done_a, entry_a = threads_a[1]._cost_run(2, 16, True, 5_000)
    done_b, entry_b = reference_cost_run(threads_b[1], 2, 16, True, 5_000)
    assert done_a == done_b
    assert describe(entry_a) == describe(entry_b)
    assert snapshot(kernel_a, probe_a) == snapshot(kernel_b, probe_b)
    assert kernel_a.machine.mmus[1].faults == len(script)


@pytest.mark.parametrize("script", [
    ("nothing", "nothing", "nothing"), ("nothing", "nothing", "real"),
])
def test_three_faults_without_a_translation_are_an_error(script):
    """Three faults are the most a reference may take, as in the
    reference loop: a translation installed by the third comes too
    late."""
    kernel, _probe, threads = build("never")
    script_faults(kernel, script)
    with pytest.raises(ExecutionError, match="after repeated faults"):
        threads[1]._cost_run(2, 16, True, 0)
    assert kernel.machine.mmus[1].faults == 3


# -- the timing helpers: whole ns in, whole ns out --------------------------------


def timing_process(now: int, busy: int, op=None) -> tuple[ThreadProcess, list]:
    """A thread process whose body, once woken, yields ``op`` (if given)
    and notes when, and with what, it is resumed next -- every wake-up
    through the fused ``ThreadProcess._wake``; and that note."""
    kernel = make_kernel(n_processors=2, defrost_enabled=False)
    aspace = kernel.vm.create_address_space()
    resumed = []

    def body():
        value = yield  # primed below: suspended as after an op
        if op is not None:
            value = yield op
        resumed.append((kernel.engine.now, value))

    gen = body()
    next(gen)
    process = ThreadProcess(kernel, kernel.threads.spawn(aspace.asid, 1), gen)
    kernel.engine.run(until=now)  # empty queue: only moves the clock
    process.rows[1].busy_until = busy
    return process, resumed


CLOCK = st.integers(0, 10**9)


@settings(max_examples=150, deadline=None)
@given(now=CLOCK, busy=CLOCK, penalty=st.integers(0, 10**7))
def test_begin_is_the_reference_formula(now, busy, penalty):
    process, _resumed = timing_process(now, busy)
    interrupts = process.kernel.machine.interrupts
    interrupts.charge(1, penalty)
    start = process._begin()
    assert start == max(now, busy) + penalty
    assert type(start) is int
    assert interrupts.state[1].pending_penalty == 0  # collected once
    assert process._begin() == max(now, busy)


@settings(max_examples=150, deadline=None)
@given(now=CLOCK, busy=CLOCK, end=st.integers(0, 2 * 10**9),
       value=st.sampled_from([None, 0, "payload"]))
def test_commit_is_the_reference_formula(now, busy, end, value):
    process, resumed = timing_process(now, busy)
    engine = process.engine
    process._commit(end, value)
    expected = max(end, now)
    assert engine.pending_events == 1  # one wake-up, at `expected` below
    assert process.rows[1].busy_until == max(busy, expected)
    engine.run()
    assert resumed == [(expected, value)]
    assert process._wake_value is None  # the slot is emptied on wake-up


#: whole, fractional and half-way durations: a program may compute one
NS = st.one_of(
    st.integers(0, 2 * 10**9),
    st.floats(0, 2e9, allow_nan=False),
    st.integers(0, 2 * 10**9).map(lambda n: n + 0.5),
)


@settings(max_examples=50, deadline=None)
@given(compute_ns=NS, penalty=st.integers(0, 10**6))
def test_compute_op_lands_where_the_formulas_say(compute_ns, penalty):
    """`_cost_compute` end to end: a fractional ``Compute.ns`` is added to
    the (whole) start time and the sum rounded once."""
    process, resumed = timing_process(1_000, 0, ops.Compute(compute_ns))
    process.kernel.machine.interrupts.charge(1, penalty)
    process._wake()  # resumes the body, which yields the Compute
    process.engine.run()
    ((landed, _value),) = resumed
    assert landed == int(round(1_000 + penalty + compute_ns))
    assert type(landed) is int


class TaggedCompute(ops.Compute):
    """A Compute subclass: it runs through ``interpret`` and ``_run``."""


@pytest.mark.parametrize("bad, keeps", [
    (ops.Compute(-1.0), True),
    (TaggedCompute(float("nan")), True),
    (ops.Read(0, 0), False),
    (ops.Write(-5, 1), False),
    (ops.Write(0, 2.5), False),
], ids=["compute", "compute-subclass", "read", "write", "write-value"])
def test_only_an_invalid_compute_leaves_the_penalty_pending(bad, keeps):
    """An invalid ``Compute`` raises before its start time takes the
    pending interrupt penalty; a bad read or write raises after it.
    The next op (caught error, then ``Compute(0)``) shows which."""
    kernel = make_kernel(n_processors=2, defrost_enabled=False)
    aspace = kernel.vm.create_address_space()
    landed = []

    def body():
        yield  # primed below: suspended as after an op
        with pytest.raises(ExecutionError):
            yield bad
        yield ops.Compute(0)
        landed.append(kernel.engine.now)

    gen = body()
    next(gen)
    process = ThreadProcess(kernel, kernel.threads.spawn(aspace.asid, 1), gen)
    kernel.engine.run(until=1_000)
    kernel.machine.interrupts.charge(1, 500)
    process._wake()
    kernel.engine.run()
    assert landed == [1_500 if keeps else 1_000]
    assert kernel.machine.interrupts.state[1].pending_penalty == 0
