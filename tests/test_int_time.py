"""Simulated time is an ``int`` by construction.

``MachineParams`` stores every latency as a whole number of ns, so
nothing behind it rounds; what used to be sampled (fractional penalties
through ``_begin``/``_commit``) is now a type, swept here over every
place a time is kept after live runs and exact replays.
"""

import math
from pathlib import Path

import pytest

from repro.machine.cache import CacheParams
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.point import point_kernel, point_program
from repro.replay import replay_trace
from repro.runtime.run import run_program
from repro.workloads import WorkloadSpec
from repro.workloads.generate import bench_spec_for, corpus_paths

CORPUS = Path(__file__).parent / "corpus"

SMOKE_POINTS = [
    {"kind": "run", "workload": "gauss", "machine": 4,
     "defrost_period": 2e6,
     "args": {"n": 12, "n_threads": 4, "verify_result": False}},
    {"kind": "run", "workload": "mergesort", "machine": 4,
     "args": {"n": 256, "n_threads": 4, "verify_result": False}},
]

POINTS = [
    pytest.param(bench_spec_for(WorkloadSpec.load(p)), id=p.stem)
    for p in corpus_paths(CORPUS)
] + [pytest.param(s, id=s["workload"]) for s in SMOKE_POINTS]

#: detail keys of a trace event that hold a time
TIME_DETAILS = ("dur", "wait", "fixed", "cost", "last_inval")


def times_kept(kernel):
    """``(where, value)`` for every simulated time the kernel holds."""
    machine = kernel.machine
    yield "engine.now", kernel.engine.now
    resources = [m.bus for m in machine.modules]
    resources += machine.topology.all_resources()
    for res in resources:
        for field in ("busy_until", "busy_time", "wait_time"):
            yield f"{res.name}.{field}", getattr(res, field)
    for i, row in enumerate(machine.interrupts.state):
        yield f"cpu{i}.busy_until", row.busy_until
        yield f"cpu{i}.pending_penalty", row.pending_penalty
    for i, delay in enumerate(machine.queue_delay_ns):
        yield f"cpu{i}.queue_delay_ns", delay
    for cpage in kernel.coherent.cpages:
        where = f"cpage {cpage.index}"
        yield f"{where}.handler_busy_until", cpage.handler_busy_until
        yield f"{where}.last_invalidation", cpage.last_invalidation
        yield f"{where}.handler_wait_ns", cpage.stats.handler_wait_ns
        yield f"{where}.handler_busy_ns", cpage.stats.handler_busy_ns
    for n, event in enumerate(kernel.tracer.events):
        yield f"event {n} time", event.time
        for key in TIME_DETAILS:
            if key in event.detail:
                yield f"event {n} {key}", event.detail[key]


def assert_all_int(kernel):
    wrong = [
        (where, value) for where, value in times_kept(kernel)
        if type(value) is not int
        # a page never invalidated has no timestamp
        and not (value is None and "last_inval" in where)
    ]
    assert not wrong, wrong[:5]


@pytest.mark.parametrize("spec", POINTS)
def test_every_kept_time_is_an_int(spec, recorded):
    kernel = point_kernel(spec, trace=True)
    run_program(kernel, point_program(spec))
    assert len(kernel.tracer.events) > 0
    assert_all_int(kernel)

    bundle, _result = recorded(spec)
    replayed = replay_trace(bundle, trace=True, check_expected=True)
    assert_all_int(replayed.kernel)


# -- the boundary: MachineParams / CacheParams --------------------------------


def test_integral_floats_become_ints():
    params = MachineParams(t_local=320.0, atc_entries=32.0)
    assert type(params.t_local) is int and params.t_local == 320
    assert type(params.atc_entries) is int
    assert type(params.scaled(t_remote_read=10000.0).t_remote_read) is int
    assert type(CacheParams(hit_ns=100.0).hit_ns) is int
    for field, value in vars(MachineParams()).items():
        assert type(value) is not float or field == (
            "block_transfer_bus_fraction")


@pytest.mark.parametrize("value", [320.5, math.nan, math.inf, -1, "320"])
def test_a_time_that_is_not_a_whole_ns_is_refused(value):
    with pytest.raises(ValueError, match="t_local must be a whole"):
        MachineParams(t_local=value)
    with pytest.raises(ValueError, match="hit_ns must be a whole"):
        CacheParams(hit_ns=value)


@pytest.mark.parametrize("field", ["atc_entries", "frames_per_module"])
def test_a_count_that_is_not_whole_is_refused(field):
    with pytest.raises(ValueError, match=f"{field} must be a whole"):
        MachineParams().scaled(**{field: 100.5})


def test_exported_spelling_is_the_recorded_one():
    exported = MachineParams(n_processors=4).to_dict()
    assert repr(exported["t_local"]) == "320.0"
    assert repr(exported["t2_defrost_period"]) == "1000000000.0"
    assert repr(exported["n_processors"]) == "4"
    assert repr(exported["atc_entries"]) == "64"
    assert exported["topology"] == "butterfly"
    assert MachineParams(**exported) == MachineParams(n_processors=4)


#: (page_bytes, t_block_word) whose 0.75 bus-fraction product is
#: fractional (.75, .5, .75) -> end of the first and of a second,
#: queued transfer, and the source bus afterwards, as computed at the
#: parent commit (float params, rounding inside FifoResource.occupy)
PINNED_TRANSFERS = [
    (20, 1085, (5525, 9594, 8238, 8138)),
    (8, 1085, (2270, 3898, 3356, 3256)),
    (12, 1083, (3349, 5786, 4974, 4874)),
]


@pytest.mark.parametrize("page_bytes, t_block_word, pinned",
                         PINNED_TRANSFERS)
def test_fractional_bus_occupancy_rounds_as_before(
        page_bytes, t_block_word, pinned):
    machine = Machine(MachineParams(
        n_processors=2, page_bytes=page_bytes, t_block_word=t_block_word))
    src = machine.ipts[0].allocate_for(0)
    first = machine.xfer.transfer_page(
        src, machine.ipts[1].allocate_for(0), 100)
    second = machine.xfer.transfer_page(
        src, machine.ipts[1].allocate_for(1), 100)
    bus = machine.modules[0].bus
    assert (first, second, bus.busy_until, bus.busy_time) == pinned
