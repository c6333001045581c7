"""Property-based tests (hypothesis) on core invariants.

The central property is the coherence contract itself: under ANY
interleaving of reads and writes from any processors, through any
replication policy, (1) every protocol invariant holds after every fault,
and (2) memory behaves like memory -- a read returns the most recent
write in simulation-event order.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import MigrationCostModel
from repro.policy.fixed import (
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from repro.machine import MachineParams
from repro.machine.pmap import Rights
from repro.sim import Engine

from tests.conftest import make_harness

POLICIES = st.sampled_from(["always", "never", "freeze"])

#: one logical access: (processor, page, write?, value)
ACCESS = st.tuples(
    st.integers(0, 3),
    st.integers(0, 2),
    st.booleans(),
    st.integers(0, 1_000_000),
)


def _multi_page_harness(policy):
    harness = make_harness(policy=policy, n_processors=4,
                           frames_per_module=32)
    kernel = harness.kernel
    extra = []
    for vpage in (1, 2):
        cpage = kernel.coherent.cpages.create(label=f"p{vpage}")
        kernel.coherent.map_page(harness.aspace_id, vpage, cpage,
                                 Rights.WRITE)
        extra.append(cpage)
    return harness, [harness.cpage] + extra


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(policy=POLICIES, accesses=st.lists(ACCESS, max_size=40))
def test_coherence_under_random_access_interleavings(policy, accesses):
    """Memory-semantics + protocol-invariant fuzzing.

    We model each word write by writing through the *mapped frame* the
    fault handler installed, exactly as the executor does, and check that
    a subsequent read through any processor's mapping observes it.
    """
    harness, cpages = _multi_page_harness(policy)
    kernel = harness.kernel
    shadow = {}  # vpage -> last value written, per event order
    for proc, vpage, write, value in accesses:
        now = kernel.engine.now
        kernel.fault(proc, harness.aspace_id, vpage, write, now)
        cmap = kernel.coherent.cmaps[harness.aspace_id]
        entry = cmap.pmap_for(proc).lookup(vpage)
        assert entry is not None
        assert entry.rights.allows(write)
        if write:
            entry.frame.data[0] = value
            shadow[vpage] = value
        else:
            expected = shadow.get(vpage)
            if expected is not None:
                assert entry.frame.data[0] == expected, (
                    f"stale read on vpage {vpage} via cpu {proc}"
                )
        kernel.check_invariants()
        kernel.engine.run(until=now + 1_000_000)


@settings(max_examples=30, deadline=None)
@given(accesses=st.lists(ACCESS, max_size=30), st_seed=st.integers(0, 5))
def test_frame_accounting_never_leaks(accesses, st_seed):
    """Every allocated frame is either in some Cpage directory or free;
    total allocated frames equals total directory entries."""
    harness, cpages = _multi_page_harness("freeze")
    kernel = harness.kernel
    for proc, vpage, write, _ in accesses:
        kernel.fault(proc, harness.aspace_id, vpage, write,
                     kernel.engine.now)
        kernel.engine.run(until=kernel.engine.now + 500_000)
    directory_frames = sum(cp.n_copies for cp in cpages)
    allocated = sum(len(m.frames) - m.n_free for m in kernel.machine.modules)
    assert allocated == directory_frames


@settings(max_examples=25, deadline=None)
@given(
    rho=st.floats(0.05, 4.0),
    g=st.floats(0.3, 3.0),
)
def test_cost_model_sound_against_direct_costs(rho, g):
    """s_min is exactly the crossover of the two cost expressions."""
    model = MigrationCostModel.paper_constants()
    s_min = model.s_min(rho, g)
    if s_min is None:
        # no size should ever make migration pay
        for s in (64, 1024, 1 << 20):
            assert not model.migration_pays(s, rho, g)
    else:
        assert model.migration_pays(s_min + 1, rho, g)
        if s_min > 1:
            assert not model.migration_pays(s_min * 0.9, rho, g)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 64),
    arity=st.integers(2, 5),
    pairs=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=10
    ),
)
def test_butterfly_routing_total(n, arity, pairs):
    """Every src/dst pair routes; routes are per-stage and deterministic."""
    from repro.machine.topology import ButterflyTopology

    params = MachineParams(
        n_processors=n, switch_arity=arity
    ).validated()
    topo = ButterflyTopology(params)
    for src, dst in pairs:
        src %= n
        dst %= n
        route = topo.route(src, dst)
        if src == dst:
            assert route == []
        else:
            assert len(route) == topo.stages
            assert route == topo.route(src, dst)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 300), min_size=1, max_size=20),
    aligned=st.lists(st.booleans(), min_size=20, max_size=20),
)
def test_arena_allocations_disjoint_and_aligned(sizes, aligned):
    from repro.runtime.program import ProgramAPI
    from repro.runtime.run import make_kernel

    api = ProgramAPI(make_kernel(n_processors=2, defrost_enabled=False))
    arena = api.arena(8)
    wpp = api.kernel.params.words_per_page
    spans = []
    for size, align in zip(sizes, aligned):
        try:
            va = arena.alloc(size, page_aligned=align)
        except MemoryError:
            break
        if align:
            assert va % wpp == 0
        assert arena.base_va <= va
        assert va + size <= arena.base_va + arena.n_words
        for other_va, other_size in spans:
            assert va >= other_va + other_size or other_va >= va + size
        spans.append((va, size))


@settings(max_examples=20, deadline=None)
@given(delays=st.lists(st.integers(0, 10_000), min_size=1, max_size=50))
def test_engine_executes_in_nondecreasing_time_order(delays):
    engine = Engine()
    seen = []
    for d in delays:
        engine.schedule(d, lambda: seen.append(engine.now))
    engine.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@settings(max_examples=20, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 5_000)),
        min_size=1,
        max_size=30,
    )
)
def test_fifo_resource_intervals_never_overlap(requests):
    from repro.sim import FifoResource

    res = FifoResource("r")
    intervals = []
    # requests must arrive in nondecreasing time order, as in the engine
    for now, dur in sorted(requests):
        start, end = res.occupy(now, dur)
        assert start >= now
        intervals.append((start, end))
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert s2 >= e1  # FIFO: no overlap, no reordering
