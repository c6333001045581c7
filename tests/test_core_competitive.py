"""Tests for the section 8 migration daemon, its reference counts on
the access hook, and the competitive bound."""

import pytest

from repro import make_kernel, run_program
from repro.core import CpageState
from repro.point import point_kernel
from repro.policy.competitive import MigrationDaemon, break_even_words
from repro.policy.fixed import NeverCachePolicy
from repro.runtime import Compute, Program, Read, Write
from repro.workloads import GaussianElimination


def test_break_even_matches_cost_model():
    kernel = make_kernel(n_processors=4)
    words = break_even_words(kernel.params)
    p = kernel.params
    migrate = (
        p.page_copy_time + p.fault_fixed_remote + p.shootdown_first
        + p.page_free
    )
    assert words == pytest.approx(
        migrate / (p.t_remote_read - p.t_local), abs=1
    )
    # a fraction of a page on this machine (paper table 1 territory)
    assert 100 < words < 1024


def test_reference_counting_off_by_default():
    kernel = make_kernel(n_processors=2, policy=NeverCachePolicy())
    result = run_program(
        kernel,
        _RemoteReader(),
    )
    assert all(
        cp.stats.remote_access_words == 0
        for cp in kernel.coherent.cpages
    )


class _RemoteReader(Program):
    """Thread 1 reads a page that was first-touch placed on node 0."""

    name = "remote-reader"

    def __init__(self, reads=5, words=200):
        self.reads = reads
        self.words = words

    def setup(self, api):
        arena = api.arena(2, label="data")
        self.va = arena.alloc(self.words, page_aligned=True)
        self.cpage = arena.cpage_of(self.va)
        sync = api.arena(1, label="sync")
        self.ready = api.event_count(sync, name="ready")
        api.spawn(0, self.placer, name="placer")
        api.spawn(1, self.reader, name="reader")

    def placer(self, env):
        yield Write(self.va, 7)
        yield from self.ready.advance()
        return "placed"

    def reader(self, env):
        yield from self.ready.await_at_least(1)
        total = 0
        for _ in range(self.reads):
            data = yield Read(self.va, self.words)
            total += int(data[0])
            yield Compute(1000)
        return total


def test_counters_accumulate_remote_traffic():
    kernel = make_kernel(n_processors=2, policy=NeverCachePolicy())
    daemon = MigrationDaemon(kernel.coherent)  # counts; never sweeps
    prog = _RemoteReader(reads=4, words=100)
    run_program(kernel, prog)
    # reader (cpu1) read 4 * 100 remote words from the data page
    assert daemon.counts[prog.cpage.index] == {1: 400}
    assert prog.cpage.stats.remote_access_words == 400


def test_daemon_replaces_hot_page():
    kernel = make_kernel(n_processors=2, policy=NeverCachePolicy())
    daemon = MigrationDaemon(
        kernel.coherent, threshold_words=300
    )
    daemon.start()
    prog = _RemoteReader(reads=10, words=100)
    run_program(kernel, prog)
    assert daemon.pages_replaced == 0  # daemon only swept via run_once
    replaced = daemon.run_once()
    assert replaced == 1
    # the page lost its mappings and will be re-placed on next touch
    assert daemon.counts[prog.cpage.index] == {}
    assert prog.cpage.state is CpageState.PRESENT1


def test_daemon_ignores_cold_pages():
    kernel = make_kernel(n_processors=2, policy=NeverCachePolicy())
    daemon = MigrationDaemon(kernel.coherent, threshold_words=10_000)
    daemon.start()
    run_program(kernel, _RemoteReader(reads=3, words=50))
    assert daemon.run_once() == 0


def test_daemon_periodic_operation_end_to_end():
    """The full competitive configuration approximates dynamic
    placement: the hot remote page eventually lands at its heavy
    reader, so the remote counters stop growing."""
    kernel = point_kernel(
        {"machine": 2, "competitive": True, "competitive_period": 5e6})
    (daemon,) = kernel.coherent.daemons
    daemon.threshold_words = 150
    prog = _RemoteReader(reads=60, words=100)
    run_program(kernel, prog)
    assert daemon.pages_replaced >= 1
    # after re-placement the reader has a local copy: remote traffic
    # stops well short of reads * words
    assert prog.cpage.stats.remote_access_words < 60 * 100


def test_daemon_does_not_break_applications():
    kernel = make_kernel(n_processors=4)
    MigrationDaemon(kernel.coherent, period=10e6).start()
    run_program(kernel, GaussianElimination(n=16, n_threads=4))
    kernel.check_invariants()


# -- the competitive-ratio invariant (property-based) --------------------------
#
# ``rent_or_buy_cost`` is the competitive argument behind both
# ``break_even_words`` (the daemon's threshold) and the zoo's online
# rent-or-buy policy, factored out as a pure function precisely so the
# classic bound -- online <= 2 * OPT + max single rent -- can be checked
# on arbitrary reference strings instead of hand-picked examples.

from hypothesis import given
from hypothesis import strategies as st

from repro.core.cpage import Cpage
from repro.policy import Action, FaultContext
from repro.policy.competitive import (
    OnlineCompetitivePolicy,
    rent_or_buy_cost,
)

_rents = st.lists(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    max_size=200,
)
_buy = st.floats(min_value=0.01, max_value=500.0,
                 allow_nan=False, allow_infinity=False)


@given(rents=_rents, buy=_buy)
def test_competitive_bound_on_random_reference_strings(rents, buy):
    online, optimal = rent_or_buy_cost(rents, buy)
    assert optimal == min(buy, sum(rents))
    assert online >= optimal - 1e-9  # no online algorithm beats OPT
    assert online <= 2.0 * optimal + max(rents, default=0.0) + 1e-9


@given(n=st.integers(min_value=0, max_value=500),
       rent=st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
       buy=_buy)
def test_competitive_bound_all_read_degenerate(n, rent, buy):
    """All-read reference string: identical rent charges.  The online
    cost is within a factor ~2 of the offline optimum, and a buy
    happens exactly when the total read rent reaches the buy price."""
    online, optimal = rent_or_buy_cost([rent] * n, buy)
    assert online <= 2.0 * optimal + rent + 1e-9
    total = sum([rent] * n)
    if total < buy:
        # renting all the way: the online cost is pure rent, no buy
        assert online == total
        assert optimal == total
    else:
        # the rent crossed break-even somewhere: OPT buys up front,
        # the online algorithm pays at most one window of extra rent
        assert optimal == buy
        assert online <= 2.0 * buy + rent + 1e-9


@given(write_rent=st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False),
       n_reads=st.integers(min_value=0, max_value=100),
       buy=_buy)
def test_competitive_bound_single_writer_degenerate(
        write_rent, n_reads, buy):
    """Single-writer degenerate case: one write charge followed by
    free local reads.  The online algorithm never pays more than the
    single rent plus (if that rent already crosses break-even) one
    buy."""
    online, optimal = rent_or_buy_cost([write_rent] + [0.0] * n_reads, buy)
    assert optimal == min(buy, write_rent)
    if write_rent < buy:
        assert online == write_rent  # renting was optimal, no buy
    else:
        assert online == write_rent + buy
    assert online <= 2.0 * optimal + write_rent + 1e-9


def _policy_ctx(cpage, write):
    return FaultContext(cpage=cpage, processor=1, now=0, write=write)


@given(ops=st.lists(st.booleans(), max_size=150),
       buy=_buy,
       rent=st.floats(min_value=0.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
       write_rent=st.floats(min_value=0.0, max_value=20.0,
                            allow_nan=False, allow_infinity=False))
def test_online_policy_agrees_with_pure_function(
        ops, buy, rent, write_rent):
    """The fault-driven policy IS the pure decision procedure: driving
    ``decide`` with an arbitrary read/write string buys exactly where
    the accumulated rent crosses the buy price, epoch by epoch."""
    policy = OnlineCompetitivePolicy(
        buy=buy, rent=rent, write_rent=write_rent)
    cpage = Cpage(index=0, home_module=0)
    accrued = 0.0
    for write in ops:
        action = policy.decide(_policy_ctx(cpage, write))
        accrued += write_rent if write else rent
        if accrued >= buy:
            assert action is Action.CACHE
            accrued = 0.0
        else:
            assert action is Action.REMOTE_MAP


def test_daemon_ignores_single_writer_local_page():
    """The daemon-side degenerate case: a page only ever touched by its
    home processor accumulates no remote counts and is never
    re-placed."""
    kernel = make_kernel(n_processors=2, policy=NeverCachePolicy())
    daemon = MigrationDaemon(kernel.coherent, threshold_words=1)

    class _LocalWriter(Program):
        name = "local-writer"

        def setup(self, api):
            arena = api.arena(1, label="data")
            self.va = arena.alloc(64, page_aligned=True)
            self.cpage = arena.cpage_of(self.va)
            api.spawn(0, self.writer, name="writer")

        def writer(self, env):
            for _ in range(20):
                yield Write(self.va, 3)
                yield Compute(1000)
            return "done"

    prog = _LocalWriter()
    run_program(kernel, prog)
    assert daemon.counts == {}
    assert daemon.run_once() == 0
