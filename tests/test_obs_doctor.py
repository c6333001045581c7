"""The coherence doctor: detector catalog over synthetic event streams."""

import io
import json

import pytest

from repro.obs import (
    DETECTOR_ORDER,
    DOCTOR_SCHEMA,
    DoctorError,
    RunLedger,
    diagnose,
    render_findings,
    set_ledger,
    strip_wall_findings,
)
from repro.obs.doctor import validate_detectors
from repro.profile.source import ProfileSource

MS = 1_000_000  # one simulated millisecond in ns


def StubSource(events, sim_time_ns=100 * MS, n_processors=4, params=None,
               page_labels=None, workload="stub"):
    """A ProfileSource of synthetic events for detector unit tests: no
    access counters, as a bare ``--trace-out`` trace loads."""
    return ProfileSource(events=events, sim_time_ns=sim_time_ns,
                         n_processors=n_processors, params=params or {},
                         page_labels=page_labels or {}, complete=False,
                         workload=workload)


def ev(time, kind, cpage, proc=0, **detail):
    return {"time": time, "kind": kind, "cpage": cpage, "proc": proc,
            "detail": detail}


def fs_findings(report):
    return [f for f in report["findings"]
            if f["detector"] == "false_sharing"]


# -- false_sharing -------------------------------------------------------------


def test_thaw_then_invalidate_within_window_is_a_cycle():
    source = StubSource([
        ev(10 * MS, "thaw", 5),
        ev(12 * MS, "shootdown", 5, directive="invalidate"),
    ])
    report = diagnose(source, detectors=["false_sharing"])
    (finding,) = fs_findings(report)
    assert finding["cpage"] == 5
    assert finding["evidence"]["cycles"] == 1
    assert finding["evidence"]["mean_reinval_gap_ns"] == 2 * MS


def test_same_instant_invalidate_before_thaw_still_counts():
    """The sec42 artifact: the shootdown serializes ahead of the thaw
    record at the same simulated instant; timestamp order wins."""
    source = StubSource([
        ev(20 * MS, "shootdown", 7, directive="invalidate"),
        ev(20 * MS, "thaw", 7),
    ])
    report = diagnose(source, detectors=["false_sharing"])
    (finding,) = fs_findings(report)
    assert finding["cpage"] == 7
    assert finding["evidence"]["mean_reinval_gap_ns"] == 0


def test_refreeze_counts_and_slow_invalidation_does_not():
    source = StubSource([
        ev(10 * MS, "thaw", 1),
        ev(11 * MS, "freeze", 1),          # re-freeze: a cycle
        ev(10 * MS, "thaw", 2),
        ev(50 * MS, "freeze", 2),          # outside the 10 ms window
        ev(10 * MS, "thaw", 3),
        ev(11 * MS, "shootdown", 3, directive="restrict"),  # not inval
    ])
    report = diagnose(source, detectors=["false_sharing"])
    assert [f["cpage"] for f in fs_findings(report)] == [1]


def test_each_thaw_pays_for_at_most_one_cycle():
    source = StubSource([
        ev(10 * MS, "thaw", 4),
        ev(11 * MS, "shootdown", 4, directive="invalidate"),
        ev(12 * MS, "shootdown", 4, directive="invalidate"),
    ])
    report = diagnose(source, detectors=["false_sharing"])
    assert fs_findings(report)[0]["evidence"]["cycles"] == 1


def test_suspects_rank_by_cycles_then_faults_without_attribution():
    events = []
    for i in range(3):  # page 1: three cycles
        events.append(ev((10 + 10 * i) * MS, "thaw", 1))
        events.append(ev((11 + 10 * i) * MS, "freeze", 1))
    events.append(ev(10 * MS, "thaw", 2))  # page 2: one cycle
    events.append(ev(11 * MS, "freeze", 2))
    source = StubSource(events)
    report = diagnose(source, detectors=["false_sharing"])
    pages = [f["cpage"] for f in fs_findings(report)]
    assert pages == [1, 2]
    severities = [f["severity"] for f in fs_findings(report)]
    assert severities == ["critical", "warning"]  # top suspect leads


def test_min_cycles_config_filters():
    source = StubSource([
        ev(10 * MS, "thaw", 1),
        ev(11 * MS, "freeze", 1),
    ])
    report = diagnose(source, detectors=["false_sharing"],
                      config={"false_sharing_min_cycles": 2})
    assert fs_findings(report) == []


# -- shootdown_storm -----------------------------------------------------------


def test_dense_shootdown_burst_is_a_storm():
    events = [ev(10 * MS + i * 1000, "shootdown", i % 3,
                 directive="invalidate") for i in range(30)]
    source = StubSource(events)
    report = diagnose(source, detectors=["shootdown_storm"])
    (finding,) = report["findings"]
    assert finding["detector"] == "shootdown_storm"
    assert finding["evidence"]["peak_count"] == 30
    assert finding["evidence"]["top_cpage"] == 0


def test_sparse_shootdowns_are_not_a_storm():
    events = [ev(i * 10 * MS, "shootdown", 1, directive="invalidate")
              for i in range(30)]
    report = diagnose(StubSource(events),
                      detectors=["shootdown_storm"])
    assert report["findings"] == []


# -- frozen_thrash and defrost_starvation --------------------------------------


def test_repeated_freeze_thaw_is_thrash():
    events = []
    for i in range(4):
        events.append(ev((10 + 20 * i) * MS, "freeze", 9))
        events.append(ev((20 + 20 * i) * MS, "thaw", 9))
    source = StubSource(events, sim_time_ns=100 * MS)
    report = diagnose(source, detectors=["frozen_thrash"])
    (finding,) = report["findings"]
    assert finding["cpage"] == 9
    assert finding["evidence"]["freeze_thaw_cycles"] == 4
    assert finding["evidence"]["frozen_fraction"] == pytest.approx(0.4)


def test_long_frozen_interval_is_starvation():
    source = StubSource(
        [ev(10 * MS, "freeze", 3), ev(60 * MS, "thaw", 3)],
        params={"t2_defrost_period": 10 * MS},
    )
    report = diagnose(source, detectors=["defrost_starvation"])
    (finding,) = report["findings"]
    assert finding["cpage"] == 3
    assert finding["evidence"]["longest_frozen_ns"] == 50 * MS


def test_starvation_needs_t2_and_skips_bare_traces():
    source = StubSource([ev(10 * MS, "freeze", 3)], params={})
    report = diagnose(source, detectors=["defrost_starvation"])
    assert report["findings"] == []


# -- pool_wall (wall-quarantined) ----------------------------------------------


def pool_records():
    return [
        {"record": "meta", "schema": "repro-events/1", "verb": "bench"},
        {"record": "event", "name": "pool.timeout", "sid": 2},
        {"record": "event", "name": "pool.worker_death", "sid": 3},
        {"record": "span", "name": "bench.point", "sid": 4,
         "status": "error"},
    ]


def test_pool_findings_live_under_the_wall_key():
    report = diagnose(ledger_records=pool_records(),
                      detectors=["pool_wall"])
    assert report["findings"] == []
    kinds = {f["wall"] and next(iter(f["wall"]))
             for f in report["wall"]["pool"]}
    assert {"timeouts", "deaths", "failures"} <= kinds
    assert report["counts"]["pool_wall"] == len(report["wall"]["pool"])
    stripped = strip_wall_findings(report)
    assert "wall" not in stripped
    assert stripped["schema"] == DOCTOR_SCHEMA


def test_pool_summary_event_is_authoritative():
    records = pool_records() + [{
        "record": "event", "name": "pool.summary", "sid": 9,
        "attrs": {"tasks": 10, "failures": 0, "timeouts": 0,
                  "respawns": 0, "deaths": 0, "stalls": 0},
    }]
    report = diagnose(ledger_records=records, detectors=["pool_wall"])
    assert "wall" not in report  # the summary says all was healthy


# -- the diagnose() report contract --------------------------------------------


def test_report_is_byte_deterministic():
    events = [ev(10 * MS, "thaw", 1), ev(11 * MS, "freeze", 1)]
    dumps = [
        json.dumps(diagnose(StubSource(list(events))), sort_keys=True)
        for _ in range(2)
    ]
    assert dumps[0] == dumps[1]


def test_detector_selection_is_canonicalized_and_validated():
    assert validate_detectors(["pool_wall", "false_sharing"]) == \
        ["false_sharing", "pool_wall"]
    with pytest.raises(DoctorError, match="unknown detector"):
        validate_detectors(["false_sharing", "warp_core"])
    assert list(DETECTOR_ORDER)[-1] == "pool_wall"


def test_unknown_config_key_raises():
    with pytest.raises(DoctorError, match="unknown doctor config"):
        diagnose(StubSource([]), config={"bogus_knob": 1})


def test_nothing_to_examine_raises():
    with pytest.raises(DoctorError, match="nothing to examine"):
        diagnose()


def test_findings_are_ledgered_as_doctor_finding_events():
    ledger = RunLedger(io.StringIO(), verb="doctor")
    previous = set_ledger(ledger)
    try:
        diagnose(StubSource([ev(10 * MS, "thaw", 1),
                             ev(11 * MS, "freeze", 1)]))
    finally:
        set_ledger(previous)
    ledger.close()
    records = [json.loads(line)
               for line in ledger.stream.getvalue().splitlines()]
    finding = next(r for r in records
                   if r.get("name") == "doctor.finding")
    assert finding["attrs"]["detector"] == "false_sharing"
    assert finding["attrs"]["cpage"] == 1


def test_render_findings_mentions_each_finding():
    report = diagnose(StubSource([ev(10 * MS, "thaw", 1),
                                  ev(11 * MS, "freeze", 1)]))
    text = render_findings(report)
    assert "false_sharing" in text
    assert "ping-pong" in text


def test_render_findings_healthy_run():
    report = diagnose(StubSource([]))
    assert "looks healthy" in render_findings(report)
