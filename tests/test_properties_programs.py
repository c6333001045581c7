"""Property-based tests at the program level.

Where ``test_properties`` fuzzes the protocol through raw faults, these
drive whole simulated programs: random thread placements and access
patterns must always produce sequentially consistent results under any
policy, locks must always provide mutual exclusion, and ports must
deliver every message exactly once.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.policy.fixed import (
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from repro.runtime import (
    Compute,
    FetchAdd,
    Program,
    Read,
    RecvPort,
    SendPort,
    Write,
    make_kernel,
    run_program,
)

POLICY_FACTORIES = {
    "freeze": TimestampFreezePolicy,
    "always": AlwaysReplicatePolicy,
    "never": NeverCachePolicy,
}

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class DisjointWriters(Program):
    """Each thread owns a disjoint slice of one shared page and writes a
    recognizable pattern; afterwards everyone must read everyone's."""

    name = "disjoint-writers"

    def __init__(self, placements, slice_words, rounds):
        self.placements = placements
        self.slice_words = slice_words
        self.rounds = rounds

    def setup(self, api):
        self.p = len(self.placements)
        arena = api.arena(2, label="shared")
        self.base = arena.alloc(
            self.p * self.slice_words, page_aligned=True
        )
        self.bar = api.barrier(api.arena(1, label="sync"), self.p)
        for tid, proc in enumerate(self.placements):
            api.spawn(proc % api.n_processors, self.body,
                      name=f"dw{tid}")

    def body(self, env):
        me = env.tid
        my_base = self.base + me * self.slice_words
        for round_ in range(self.rounds):
            value = round_ * 100 + me
            yield Write(
                my_base,
                np.full(self.slice_words, value, dtype=np.int64),
            )
            yield from self.bar.wait()
            # after the barrier, all slices must show this round's value
            data = yield Read(self.base, self.p * self.slice_words)
            for other in range(self.p):
                got = data[other * self.slice_words]
                assert got == round_ * 100 + other, (
                    f"round {round_}: thread {me} saw {got} in slice "
                    f"{other}"
                )
            yield from self.bar.wait()
        return me

    def verify(self, results):
        assert sorted(results) == list(range(self.p))


@SETTINGS
@given(
    policy=st.sampled_from(sorted(POLICY_FACTORIES)),
    placements=st.lists(st.integers(0, 3), min_size=2, max_size=4),
    slice_words=st.integers(1, 32),
    rounds=st.integers(1, 3),
)
def test_barrier_separated_writes_always_visible(
    policy, placements, slice_words, rounds
):
    kernel = make_kernel(
        n_processors=4, policy=POLICY_FACTORIES[policy]()
    )
    run_program(
        kernel, DisjointWriters(placements, slice_words, rounds)
    )
    kernel.check_invariants()


class AtomicCounters(Program):
    """Racing FetchAdds on shared counters: the total must be exact."""

    name = "atomic-counters"

    def __init__(self, placements, increments):
        self.placements = placements
        self.increments = increments

    def setup(self, api):
        self.p = len(self.placements)
        arena = api.arena(1, label="counters")
        self.vas = [arena.alloc(1) for _ in range(2)]
        for tid, proc in enumerate(self.placements):
            api.spawn(proc % api.n_processors, self.body,
                      name=f"ac{tid}")

    def body(self, env):
        last = 0
        for i in range(self.increments):
            last = yield FetchAdd(self.vas[i % 2], 1)
            if i % 3 == 0:
                yield Compute(500)
        return last

    def verify(self, results):
        pass


@SETTINGS
@given(
    policy=st.sampled_from(sorted(POLICY_FACTORIES)),
    placements=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    increments=st.integers(1, 12),
)
def test_atomic_increments_never_lost(policy, placements, increments):
    kernel = make_kernel(
        n_processors=4, policy=POLICY_FACTORIES[policy]()
    )
    prog = AtomicCounters(placements, increments)
    run_program(kernel, prog)
    total_expected = len(placements) * increments
    totals = 0
    for va in prog.vas:
        cpage = kernel.coherent.cpages.get(0)
        frame = next(iter(cpage.frames.values()))
        totals += int(frame.data[va % kernel.params.words_per_page])
    assert totals == total_expected


class PortFanIn(Program):
    """Senders fire tagged messages at one port; the receiver must see
    every message exactly once, regardless of placement."""

    name = "port-fan-in"

    def __init__(self, sender_procs, messages_each):
        self.sender_procs = sender_procs
        self.messages_each = messages_each

    def setup(self, api):
        self.port = api.port(home_module=0, label="sink")
        self.n_senders = len(self.sender_procs)
        api.spawn(0, self.receiver, name="recv")
        for tid, proc in enumerate(self.sender_procs):
            api.spawn(proc % api.n_processors, self.sender,
                      name=f"send{tid}")

    def receiver(self, env):
        got = []
        for _ in range(self.n_senders * self.messages_each):
            msg = yield RecvPort(self.port)
            got.append(int(msg[0]))
        return sorted(got)

    def sender(self, env):
        sender_index = env.tid - 1
        for i in range(self.messages_each):
            tag = sender_index * 1000 + i
            yield SendPort(self.port, np.array([tag], dtype=np.int64))
        return sender_index

    def verify(self, results):
        expected = sorted(
            s * 1000 + i
            for s in range(self.n_senders)
            for i in range(self.messages_each)
        )
        assert results[0] == expected


@SETTINGS
@given(
    sender_procs=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    messages_each=st.integers(1, 6),
)
def test_ports_deliver_exactly_once(sender_procs, messages_each):
    kernel = make_kernel(n_processors=4)
    run_program(kernel, PortFanIn(sender_procs, messages_each))
