"""Trace conformance checking (``repro.check.conformance``).

Real traces from harness runs and workloads must replay cleanly against
the Figure 4 table; tampered traces must produce a divergence that names
the event and the expected-versus-actual successor.
"""

import dataclasses

from repro.check import check_trace
from repro.policy.fixed import TimestampFreezePolicy
from repro.core.trace import EventKind, TraceEvent
from repro.runtime import make_kernel, run_program
from repro.workloads import GaussianElimination, PhaseChangeSharing

from tests.conftest import make_harness


def traced_harness(**kw):
    harness = make_harness(**kw)
    harness.kernel.tracer.enable()
    return harness


# -- clean traces conform -----------------------------------------------------


def test_simple_fault_sequence_conforms():
    harness = traced_harness()
    harness.fault(0, write=True)   # empty --write--> modified (fill)
    harness.fault(1, write=False)  # modified --read--> present+ (replicate)
    harness.fault(2, write=True)   # present+ --write--> modified (collapse)
    report = check_trace(harness.kernel.tracer)
    assert report.ok, report.describe()
    assert report.n_faults == 3
    assert "conformance ok" in report.describe()


def test_freeze_and_defrost_trace_conforms():
    harness = traced_harness(policy="freeze")
    harness.fault(0, write=True)
    harness.fault(1, write=True)
    harness.fault(2, write=True, settle=False)  # within t1: freezes
    harness.fault(3, write=False, settle=False)  # frozen remote map
    harness.settle(300e6)
    harness.kernel.coherent.defrost.run_once()
    harness.fault(3, write=False)  # thawed page replicates again
    report = check_trace(harness.kernel.tracer)
    assert report.ok, report.describe()


def test_workload_traces_conform():
    for kernel, program in (
        (
            make_kernel(n_processors=8, trace=True),
            GaussianElimination(n=16, n_threads=4),
        ),
        (
            make_kernel(n_processors=8, trace=True, defrost_period=30e6),
            PhaseChangeSharing(n_threads=4),
        ),
        (
            make_kernel(
                n_processors=8,
                trace=True,
                policy=TimestampFreezePolicy(thaw_on_fault=True),
            ),
            GaussianElimination(n=16, n_threads=4),
        ),
    ):
        run_program(kernel, program)
        report = check_trace(kernel.tracer)
        assert report.ok, f"{program.name}: {report.describe()}"
        assert report.n_faults > 0


def test_raw_event_list_is_accepted():
    harness = traced_harness()
    harness.fault(0, write=True)
    report = check_trace(list(harness.kernel.tracer.events))
    assert report.ok


# -- tampered traces diverge --------------------------------------------------


def good_trace(policy="always"):
    harness = traced_harness(policy=policy)
    harness.fault(0, write=True)
    harness.fault(1, write=False)
    harness.fault(2, write=True)
    return list(harness.kernel.tracer.events)


def tamper(event, **detail):
    return dataclasses.replace(event, detail={**event.detail, **detail})


def first_fault_index(events):
    return next(
        i for i, e in enumerate(events) if e.kind is EventKind.FAULT
    )


def test_detects_forged_successor_state():
    events = good_trace()
    i = first_fault_index(events)
    events[i] = tamper(events[i], to="present+")  # fill ends modified
    report = check_trace(events)
    assert not report.ok
    assert "successor" in report.divergence.reason
    assert "modified" in report.divergence.expected
    assert "present+" in report.divergence.actual


def test_detects_unrecorded_state_change():
    events = good_trace()
    faults = [
        i for i, e in enumerate(events) if e.kind is EventKind.FAULT
    ]
    del events[faults[1]]  # the replicate vanishes: history skips a step
    report = check_trace(events)
    assert not report.ok
    assert "outside recorded protocol" in report.divergence.reason


def test_detects_action_not_in_the_table():
    events = good_trace()
    i = first_fault_index(events)
    events[i] = tamper(events[i], action="migrate")  # empty never migrates
    report = check_trace(events)
    assert not report.ok
    assert "no transition" in report.divergence.expected


def test_detects_frozen_page_being_cached():
    events = good_trace()
    i = first_fault_index(events)
    freeze = TraceEvent(
        time=events[i].time,
        kind=EventKind.FREEZE,
        cpage_index=events[i].cpage_index,
        processor=None,
    )
    events.insert(i + 1, freeze)  # frozen before the later replicate
    report = check_trace(events)
    assert not report.ok
    assert "frozen page was cached" in report.divergence.reason


def test_detects_double_freeze():
    events = good_trace(policy="freeze")
    i = first_fault_index(events)
    freeze = TraceEvent(
        time=events[i].time,
        kind=EventKind.FREEZE,
        cpage_index=events[i].cpage_index,
        processor=None,
    )
    report = check_trace(events[: i + 1] + [freeze, freeze])
    assert not report.ok
    assert "already-frozen" in report.divergence.reason


def test_detects_thaw_of_unfrozen_page():
    events = good_trace()
    i = first_fault_index(events)
    thaw = TraceEvent(
        time=events[i].time,
        kind=EventKind.THAW,
        cpage_index=events[i].cpage_index,
        processor=None,
        detail={"via": "defrost"},
    )
    report = check_trace(events[: i + 1] + [thaw])
    assert not report.ok
    assert "not frozen" in report.divergence.reason


def test_detects_transfer_from_empty_page():
    transfer = TraceEvent(
        time=0,
        kind=EventKind.TRANSFER,
        cpage_index=7,
        processor=None,
        detail={"src": 0, "dst": 1},
    )
    report = check_trace([transfer])
    assert not report.ok
    assert "no copies" in report.divergence.reason


def test_detects_self_transfer():
    events = good_trace()
    i = first_fault_index(events)
    transfer = TraceEvent(
        time=events[i].time,
        kind=EventKind.TRANSFER,
        cpage_index=events[i].cpage_index,
        processor=None,
        detail={"src": 2, "dst": 2},
    )
    report = check_trace(events[: i + 1] + [transfer])
    assert not report.ok
    assert "onto itself" in report.divergence.reason


def test_divergence_report_names_the_event():
    events = good_trace()
    i = first_fault_index(events)
    events[i] = tamper(events[i], to="present+")
    report = check_trace(events)
    text = report.describe()
    assert "conformance FAILED" in text
    assert "expected:" in text and "actual:" in text
    assert f"cpage {events[i].cpage_index}" in text


def test_replay_stops_at_first_divergence():
    events = good_trace()
    i = first_fault_index(events)
    events[i] = tamper(events[i], to="present+")
    report = check_trace(events)
    # everything after the divergence is unreported, not replayed
    assert report.n_events == i + 1
