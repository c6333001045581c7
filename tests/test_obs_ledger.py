"""The repro-events/1 run ledger: spans, crash behaviour, validation."""

import io
import json

import pytest

from repro.obs import (
    LEDGER_SCHEMA,
    NULL_SPAN,
    LedgerError,
    RunLedger,
    read_ledger,
    set_ledger,
    strip_wall_ledger,
    summarize_ledger,
    validate_ledger,
)
from repro.obs import ledger as ledger_mod


def make_ledger(stream=None, verb="test"):
    return RunLedger(stream or io.StringIO(), verb=verb,
                     argv=["--flag"])


def records_of(ledger):
    return [json.loads(line)
            for line in ledger.stream.getvalue().splitlines()]


def test_meta_record_is_first_and_schema_tagged():
    ledger = make_ledger()
    ledger.close()
    records = records_of(ledger)
    assert records[0]["record"] == "meta"
    assert records[0]["schema"] == LEDGER_SCHEMA
    assert records[0]["verb"] == "test"
    assert records[0]["argv"] == ["--flag"]
    assert "pid" in records[0]["wall"]


def test_spans_nest_under_the_innermost_open_span():
    ledger = make_ledger()
    with ledger.span("outer") as outer:
        with ledger.span("inner") as inner:
            assert inner.parent == outer.sid
    ledger.close()
    spans = [r for r in records_of(ledger) if r["record"] == "span"]
    # written at end time: inner closes first
    assert [s["name"] for s in spans] == ["inner", "outer"]
    assert spans[0]["parent"] == spans[1]["sid"]


def test_span_exception_records_error_status_and_propagates():
    ledger = make_ledger()
    with pytest.raises(RuntimeError):
        with ledger.span("boom"):
            raise RuntimeError("kapow")
    ledger.close()
    span = next(r for r in records_of(ledger)
                if r["record"] == "span")
    assert span["status"] == "error"
    assert "kapow" in span["attrs"]["error"]


def test_close_ends_open_spans_as_aborted():
    ledger = make_ledger()
    ledger.span("never-ended")
    ledger.close(status="error")
    records = records_of(ledger)
    span = next(r for r in records if r["record"] == "span")
    assert span["status"] == "aborted"
    close = records[-1]
    assert close["record"] == "close"
    assert close["status"] == "error"
    assert close["spans"] == 1


def test_every_wall_dependent_field_lives_under_wall():
    ledger = make_ledger()
    with ledger.span("s", task="t1"):
        ledger.event("e", detail=7)
    ledger.close()
    for record in records_of(ledger):
        stripped = {k: v for k, v in record.items() if k != "wall"}
        text = json.dumps(stripped)
        # no timestamps or durations outside the wall object
        assert "t0_s" not in text
        assert "dur_s" not in text


def test_torn_final_line_is_tolerated(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path, verb="v")
    with ledger.span("a"):
        pass
    ledger.close()
    text = path.read_text()
    path.write_text(text + '{"record":"span","tru')
    records = read_ledger(path)
    assert [r["record"] for r in records] == ["meta", "span", "close"]


def test_malformed_interior_line_raises(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path, verb="v")
    ledger.close()
    lines = path.read_text().splitlines()
    lines.insert(1, "not json")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LedgerError):
        read_ledger(path)


def test_crash_leaves_valid_truncated_ledger(tmp_path):
    """Line-at-a-time flush: a never-closed ledger still parses."""
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path, verb="v")
    with ledger.span("done"):
        pass
    ledger.span("in-flight")  # crash here: neither ended nor closed
    records = read_ledger(path)
    assert [r["record"] for r in records] == ["meta", "span"]
    assert validate_ledger(records) == []
    summary = summarize_ledger(records)
    assert "interrupted" in summary


def test_validate_ledger_flags_problems():
    assert validate_ledger([]) == ["ledger is empty"]
    problems = validate_ledger([
        {"record": "meta", "schema": "wrong/9"},
        {"record": "span", "sid": 1, "name": "a", "wall": {}},
        {"record": "span", "sid": 1, "name": "b", "wall": {}},
        {"record": "span", "name": "c"},
        {"record": "mystery"},
        {"record": "event", "sid": 9, "name": "e", "wall": {},
         "parent": "one"},
    ])
    text = "\n".join(problems)
    assert "wrong/9" in text
    assert "duplicate sid 1" in text
    assert "records[3]: missing required key 'sid'" in text
    assert "unknown record kind" in text
    assert "records[5].parent: expected an integer or null" in text


def test_strip_wall_ledger_is_stable_across_completion_order():
    a, b = make_ledger(), make_ledger()
    with a.span("root"):
        a.append_span("p", {"task": "t0"}, {"dur_s": 1.0}, status="ok")
        a.append_span("p", {"task": "t1"}, {"dur_s": 2.0}, status="ok")
    a.close()
    with b.span("root"):
        b.append_span("p", {"task": "t0"}, {"dur_s": 9.0}, status="ok")
        b.append_span("p", {"task": "t1"}, {"dur_s": 0.1}, status="ok")
    b.close()
    assert strip_wall_ledger(records_of(a)) == \
        strip_wall_ledger(records_of(b))


def test_ambient_api_is_noop_without_a_ledger():
    assert ledger_mod.get_ledger() is None
    span = ledger_mod.span("anything", key=1)
    assert span is NULL_SPAN
    with span as s:
        s.attrs["ignored"] = True  # discarded, never shared
        s.event("e")
    assert NULL_SPAN.attrs == {}
    ledger_mod.event("also-ignored")


def test_ambient_api_routes_to_the_installed_ledger():
    ledger = make_ledger()
    previous = set_ledger(ledger)
    try:
        with ledger_mod.span("work", kind="unit"):
            ledger_mod.event("tick")
    finally:
        set_ledger(previous)
    ledger.close()
    records = records_of(ledger)
    assert any(r.get("name") == "work" for r in records)
    assert any(r.get("name") == "tick" for r in records)


def test_append_span_parents_under_explicit_sid():
    ledger = make_ledger()
    with ledger.span("sweep") as sweep:
        ledger.append_span("point", {"task": "x"}, {"dur_s": 0.5},
                           parent=sweep.sid)
    ledger.close()
    records = records_of(ledger)
    point = next(r for r in records if r.get("name") == "point")
    sweep_rec = next(r for r in records if r.get("name") == "sweep")
    assert point["parent"] == sweep_rec["sid"]


# -- tick records and the follow channel --------------------------------------


def test_tick_records_are_wall_only_and_validate():
    ledger = make_ledger()
    ledger.tick("bench.progress", task="t0", done=1, total=3)
    ledger.close()
    records = records_of(ledger)
    tick = next(r for r in records if r["record"] == "tick")
    assert "sid" not in tick
    assert tick["name"] == "bench.progress"
    assert tick["wall"]["task"] == "t0"
    assert set(tick) == {"record", "name", "wall"}
    assert validate_ledger(records) == []


def test_validate_rejects_a_tick_with_a_sid():
    problems = validate_ledger([
        {"record": "meta", "schema": LEDGER_SCHEMA},
        {"record": "tick", "name": "t", "sid": 4, "wall": {}},
    ])
    assert any("wall-only" in p for p in problems)


def test_strip_wall_ledger_drops_ticks_and_is_idempotent():
    ledger = make_ledger()
    with ledger.span("root"):
        ledger.tick("bench.progress", done=1)
        ledger.event("e")
        ledger.tick("pool.heartbeat", busy=2)
    ledger.close()
    stripped = strip_wall_ledger(records_of(ledger))
    assert all(r["record"] != "tick" for r in stripped)
    assert all("wall" not in r for r in stripped)
    # idempotence: stripping the stripped view is a no-op
    assert strip_wall_ledger(stripped) == stripped


def test_ambient_tick_routes_and_noops():
    ledger_mod.tick("ignored", x=1)  # no ambient ledger: a no-op
    ledger = make_ledger()
    previous = set_ledger(ledger)
    try:
        ledger_mod.tick("bench.progress", done=2)
    finally:
        set_ledger(previous)
    ledger.close()
    assert any(r.get("record") == "tick" for r in records_of(ledger))


def test_follow_ledger_yields_all_records_then_returns(tmp_path):
    from repro.obs import follow_ledger

    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path, verb="bench")
    ledger.tick("bench.progress", done=1, total=2)
    with ledger.span("work"):
        pass
    ledger.close()
    records = list(follow_ledger(path, poll_s=0, timeout_s=5))
    assert [r["record"] for r in records] == \
        ["meta", "tick", "span", "close"]


def test_follow_ledger_times_out_without_a_close(tmp_path):
    from repro.obs import follow_ledger

    path = tmp_path / "ledger.jsonl"
    RunLedger(path, verb="v")  # never closed
    clock_now = [0.0]

    def clock():
        clock_now[0] += 1.0
        return clock_now[0]

    with pytest.raises(LedgerError, match="no close record"):
        list(follow_ledger(path, poll_s=0, timeout_s=3,
                           clock=clock, sleep=lambda _s: None))


def test_follow_ledger_times_out_on_a_missing_file(tmp_path):
    from repro.obs import follow_ledger

    clock_now = [0.0]

    def clock():
        clock_now[0] += 1.0
        return clock_now[0]

    with pytest.raises(LedgerError, match="no ledger appeared"):
        list(follow_ledger(tmp_path / "never.jsonl", poll_s=0,
                           timeout_s=2, clock=clock,
                           sleep=lambda _s: None))


def test_render_follow_record_lines():
    from repro.obs import render_follow_record

    assert "following repro bench" in render_follow_record(
        {"record": "meta", "verb": "bench", "wall": {"pid": 7}})
    progress = render_follow_record({
        "record": "tick", "name": "bench.progress",
        "wall": {"task": "t::p=2", "ok": True, "done": 2, "total": 9,
                 "dur_s": 0.25}})
    assert "[2/9]" in progress and "t::p=2" in progress
    heartbeat = render_follow_record({
        "record": "tick", "name": "pool.heartbeat",
        "wall": {"busy": 3, "pending": 1, "tasks_done": 4}})
    assert "3 busy" in heartbeat and "4 done" in heartbeat
    closed = render_follow_record(
        {"record": "close", "status": "ok", "spans": 2, "events": 0})
    assert "ledger closed" in closed
