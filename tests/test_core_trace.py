"""Tests for the protocol tracing subsystem."""

import pytest

from repro import make_kernel, run_program
from repro.core import EventKind, ProtocolTracer
from repro.workloads import GaussianElimination

from tests.conftest import make_harness
from tests.test_runtime_executor import StridedReader


def _traced_harness(policy="always"):
    harness = make_harness(policy=policy)
    harness.kernel.tracer.enable()
    return harness


def test_disabled_tracer_records_nothing():
    harness = make_harness()
    harness.fault(0, write=False)
    harness.fault(1, write=True)
    assert len(harness.kernel.tracer) == 0


def test_fault_events_carry_transitions():
    harness = _traced_harness()
    harness.fault(0, write=False)
    harness.fault(1, write=True)
    tracer = harness.kernel.tracer
    faults = tracer.by_kind(EventKind.FAULT)
    assert len(faults) == 2
    assert faults[0].detail["from"] == "empty"
    assert faults[0].detail["to"] == "present1"
    assert faults[1].detail["to"] == "modified"
    assert faults[1].detail["action"] == "migrate"


def test_transfer_and_shootdown_events():
    harness = _traced_harness()
    harness.fault(0, write=True)
    harness.fault(1, write=True)  # migrate: copy + invalidate
    tracer = harness.kernel.tracer
    transfers = tracer.by_kind(EventKind.TRANSFER)
    assert len(transfers) == 1
    assert transfers[0].detail["src"] == 0
    assert transfers[0].detail["dst"] == 1
    assert transfers[0].detail["dur"] >= 0
    shootdowns = tracer.by_kind(EventKind.SHOOTDOWN)
    assert len(shootdowns) == 1
    assert shootdowns[0].detail["directive"] == "invalidate"
    assert shootdowns[0].detail["cost"] >= 0
    # causality: both are children of the migrating write fault
    fault = tracer.by_kind(EventKind.FAULT)[-1]
    assert fault.eid is not None
    assert transfers[0].cause == fault.eid
    assert shootdowns[0].cause == fault.eid


def test_freeze_and_thaw_events():
    harness = _traced_harness(policy="freeze")
    harness.fault(0, write=True)
    harness.fault(1, write=True)
    harness.fault(2, write=True, settle=False)  # within t1: freezes
    tracer = harness.kernel.tracer
    assert len(tracer.by_kind(EventKind.FREEZE)) == 1
    harness.kernel.coherent.defrost.run_once()
    thaws = tracer.by_kind(EventKind.THAW)
    assert len(thaws) == 1
    assert thaws[0].detail["via"] == "defrost"
    assert len(tracer.by_kind(EventKind.DEFROST_RUN)) == 1


def test_transitions_of_page():
    harness = _traced_harness()
    harness.fault(0, write=False)
    harness.fault(1, write=False)
    harness.fault(1, write=True)
    seq = harness.kernel.tracer.transitions_of(harness.cpage.index)
    assert seq == [
        ("empty", "present1"),
        ("present1", "present+"),
        ("present+", "modified"),
    ]


def test_query_filters():
    harness = _traced_harness()
    harness.fault(0, write=False)
    harness.fault(1, write=False)
    tracer = harness.kernel.tracer
    assert tracer.by_cpage(harness.cpage.index)
    assert tracer.by_cpage(999) == []


def test_counts_and_timeline():
    harness = _traced_harness()
    harness.fault(0, write=False)
    harness.fault(1, write=True)
    tracer = harness.kernel.tracer
    counts = tracer.counts()
    assert counts["fault"] == 2
    text = tracer.timeline(harness.cpage.index)
    assert "fault" in text and "ms" in text


def test_event_cap_drops_and_reports():
    tracer = ProtocolTracer(enabled=True, max_events=2)
    for i in range(5):
        tracer.record(i, EventKind.FAULT, 0, 0)
    assert len(tracer) == 2
    assert tracer.dropped == 3
    assert "dropped" in tracer.timeline()


def test_ring_mode_keeps_newest_events():
    tracer = ProtocolTracer(enabled=True, max_events=3, ring=True)
    for i in range(7):
        tracer.record(i, EventKind.FAULT, 0, 0)
    assert len(tracer) == 3
    assert [e.time for e in tracer.events] == [4, 5, 6]  # oldest evicted
    assert tracer.dropped == 4
    assert "evicted" in tracer.timeline()


def test_use_ring_converts_and_evicts_existing_events():
    tracer = ProtocolTracer(enabled=True)
    for i in range(6):
        tracer.record(i, EventKind.FAULT, 0, 0)
    tracer.use_ring(max_events=2)
    assert [e.time for e in tracer.events] == [4, 5]
    assert tracer.dropped == 4
    # and it keeps rolling: new events evict the oldest retained
    tracer.record(9, EventKind.FAULT, 0, 0)
    assert [e.time for e in tracer.events] == [5, 9]
    assert tracer.dropped == 5


def test_ring_clear_resets_and_keeps_capacity():
    tracer = ProtocolTracer(enabled=True, max_events=2, ring=True)
    for i in range(4):
        tracer.record(i, EventKind.FAULT, 0, 0)
    tracer.clear()
    assert len(tracer) == 0 and tracer.dropped == 0
    for i in range(3):
        tracer.record(i, EventKind.FAULT, 0, 0)
    assert [e.time for e in tracer.events] == [1, 2]


def test_tracing_full_application_run():
    kernel = make_kernel(n_processors=4, trace=True)
    run_program(
        kernel, GaussianElimination(n=16, n_threads=4,
                                    verify_result=False)
    )
    tracer = kernel.tracer
    counts = tracer.counts()
    assert counts["fault"] == kernel.coherent.fault_handler.fault_count
    assert counts.get("transfer", 0) == kernel.machine.xfer.transfer_count
    assert counts.get("freeze", 0) >= 1  # the event-count page froze
    # the ordered view is sorted by time
    times = [e.time for e in tracer.ordered()]
    assert times == sorted(times)


def test_clear_resets():
    tracer = ProtocolTracer(enabled=True)
    tracer.record(0, EventKind.FAULT, 0, 0)
    tracer.clear()
    assert len(tracer) == 0


def test_trace_stops_recording_once_disabled():
    from repro.core import EventKind

    kernel = make_kernel(n_processors=2, trace=True)
    run_program(kernel, StridedReader())
    n_before = len(kernel.tracer)
    assert n_before > 0
    kernel.tracer.disable()
    kernel.tracer.record(0, EventKind.FAULT, 0, 0)
    assert len(kernel.tracer) == n_before  # disabled: nothing recorded
