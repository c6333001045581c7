"""Tests for streaming trace export (repro.telemetry.export)."""

import io
import json
from collections import defaultdict

import pytest

from repro import make_kernel, run_program
from repro.core.trace import EventKind, ProtocolTracer
from repro.telemetry import ChromeTraceSink, JsonlTraceSink
from repro.workloads import GaussianElimination, PhaseChangeSharing


# -- sink plumbing on the tracer ----------------------------------------------


def test_add_sink_enables_tracer_and_streams():
    tracer = ProtocolTracer()
    buf = io.StringIO()
    sink = JsonlTraceSink(buf)
    tracer.add_sink(sink)
    assert tracer.enabled
    tracer.record(10, EventKind.FAULT, 1, 0, action="replicate")
    tracer.record(20, EventKind.THAW, 1, None, via="defrost")
    tracer.close_sinks()
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "time": 10, "kind": "fault", "cpage": 1, "proc": 0,
        "detail": {"action": "replicate"},
    }


def test_retain_false_streams_without_retention():
    tracer = ProtocolTracer()
    buf = io.StringIO()
    sink = JsonlTraceSink(buf)
    tracer.add_sink(sink)
    tracer.retain = False
    tracer.record(10, EventKind.FAULT, 1, 0)
    assert len(tracer.events) == 0
    assert sink.emitted == 1


def test_sink_receives_events_dropped_at_the_cap():
    tracer = ProtocolTracer(enabled=True, max_events=1)
    buf = io.StringIO()
    tracer.add_sink(JsonlTraceSink(buf))
    tracer.record(1, EventKind.FAULT, 0, 0)
    tracer.record(2, EventKind.FAULT, 0, 0)
    assert len(tracer.events) == 1
    assert tracer.dropped == 1
    assert len(buf.getvalue().splitlines()) == 2


def test_remove_sink_stops_streaming():
    tracer = ProtocolTracer(enabled=True)
    buf = io.StringIO()
    sink = JsonlTraceSink(buf)
    tracer.add_sink(sink)
    tracer.record(1, EventKind.FAULT, 0, 0)
    tracer.sinks.remove(sink)
    tracer.record(2, EventKind.FAULT, 0, 0)
    assert sink.emitted == 1


# -- Chrome trace format -------------------------------------------------------


def _chrome_doc(buf: io.StringIO) -> dict:
    return json.loads(buf.getvalue())


def test_chrome_sink_tracks_and_metadata():
    buf = io.StringIO()
    sink = ChromeTraceSink(buf, n_processors=2)
    sink.emit(_event(1000, EventKind.FAULT, 3, 1, action="migrate"))
    sink.emit(_event(2000, EventKind.TRANSFER, 3, None, src=0, dst=1))
    sink.emit(_event(3000, EventKind.DEFROST_RUN, None, None, thawed=0))
    sink.close()
    doc = _chrome_doc(buf)
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta
             if e["name"] == "thread_name"}
    assert {"cpu0", "cpu1", "daemon", "xfer"} <= names
    fault = next(e for e in events if e.get("name") == "fault:migrate")
    assert fault["ph"] == "i"
    assert fault["tid"] == 1
    assert fault["ts"] == 1.0  # ns -> us
    assert fault["args"]["cpage"] == 3
    xfer = next(e for e in events if e.get("name") == "xfer m0->m1")
    assert xfer["cat"] == "transfer"


def test_chrome_sink_freeze_thaw_async_span():
    buf = io.StringIO()
    sink = ChromeTraceSink(buf)
    sink.emit(_event(1000, EventKind.FREEZE, 5, 0))
    sink.emit(_event(9000, EventKind.THAW, 5, 0, via="defrost"))
    sink.close()
    events = _chrome_doc(buf)["traceEvents"]
    begin = next(e for e in events if e["ph"] == "b")
    end = next(e for e in events if e["ph"] == "e")
    assert begin["cat"] == end["cat"] == "frozen"
    assert begin["id"] == end["id"] == 5
    assert begin["ts"] == 1.0 and end["ts"] == 9.0


def test_chrome_sink_closes_open_spans_at_last_ts():
    buf = io.StringIO()
    sink = ChromeTraceSink(buf)
    sink.emit(_event(1000, EventKind.FREEZE, 5, 0))
    sink.emit(_event(50_000, EventKind.FAULT, 1, 0, action="remote_map"))
    sink.close()
    events = _chrome_doc(buf)["traceEvents"]
    end = next(e for e in events if e["ph"] == "e")
    assert end["ts"] == 50.0


def test_chrome_ts_monotone_per_track_from_a_real_run():
    kernel = make_kernel(n_processors=4, trace=True)
    buf = io.StringIO()
    kernel.tracer.add_sink(
        ChromeTraceSink(buf, n_processors=4)
    )
    run_program(kernel, GaussianElimination(
        n=24, n_threads=4, verify_result=False,
    ))
    kernel.tracer.close_sinks()
    events = _chrome_doc(buf)["traceEvents"]
    by_track = defaultdict(list)
    for e in events:
        if e["ph"] != "M":
            by_track[e["tid"]].append(e["ts"])
    assert by_track
    for tid, stamps in by_track.items():
        assert stamps == sorted(stamps), f"track {tid} not monotone"


def test_chrome_frozen_spans_balance_over_a_freezing_run():
    kernel = make_kernel(n_processors=4, trace=True,
                         defrost_period=30e6)
    buf = io.StringIO()
    kernel.tracer.add_sink(ChromeTraceSink(buf, n_processors=4))
    run_program(kernel, PhaseChangeSharing(n_threads=4))
    kernel.tracer.close_sinks()
    events = _chrome_doc(buf)["traceEvents"]
    begins = sum(1 for e in events if e["ph"] == "b")
    ends = sum(1 for e in events if e["ph"] == "e")
    assert begins > 0
    assert begins == ends


# -- file output ----------------------------------------------------------------


def test_sinks_write_files(tmp_path):
    kernel = make_kernel(n_processors=2, trace=True)
    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "nested" / "trace.json"
    kernel.tracer.add_sink(JsonlTraceSink(jsonl))
    kernel.tracer.add_sink(ChromeTraceSink(chrome, n_processors=2))
    run_program(kernel, GaussianElimination(
        n=12, n_threads=2, verify_result=False,
    ))
    kernel.tracer.close_sinks()
    lines = jsonl.read_text().splitlines()
    assert len(lines) == len(kernel.tracer.events) > 0
    doc = json.loads(chrome.read_text())
    assert doc["displayTimeUnit"] == "ms"


def test_streamed_jsonl_matches_retained_events():
    kernel = make_kernel(n_processors=2, trace=True)
    buf = io.StringIO()
    kernel.tracer.add_sink(JsonlTraceSink(buf))
    run_program(kernel, GaussianElimination(
        n=12, n_threads=2, verify_result=False,
    ))
    kernel.tracer.close_sinks()
    assert len(buf.getvalue().splitlines()) == len(kernel.tracer.events)


def test_sink_close_is_idempotent(tmp_path):
    sink = JsonlTraceSink(tmp_path / "t.jsonl")
    sink.close()
    sink.close()
    chrome = ChromeTraceSink(tmp_path / "t.json")
    chrome.close()
    chrome.close()


def _event(time, kind, cpage, proc, **detail):
    from repro.core.trace import TraceEvent

    return TraceEvent(time, kind, cpage, proc, detail)


# -- crash safety: flush-on-exception ------------------------------------------


def test_sinks_are_context_managers_that_close_on_exception(tmp_path):
    """A crashing run inside ``with sink:`` still flushes: the file is
    a valid, truncated-but-parseable trace."""
    path = tmp_path / "crash.jsonl"
    with pytest.raises(RuntimeError):
        with JsonlTraceSink(path) as sink:
            sink.emit(_event(10, EventKind.FAULT, 0, 1, action="x"))
            sink.emit(_event(20, EventKind.FAULT, 1, 0, action="y"))
            raise RuntimeError("mid-run crash")
    assert sink.closed
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert [json.loads(line)["time"] for line in lines] == [10, 20]


def test_chrome_sink_context_manager_writes_document(tmp_path):
    path = tmp_path / "crash.json"
    with pytest.raises(RuntimeError):
        with ChromeTraceSink(path, n_processors=2) as sink:
            sink.emit(_event(10, EventKind.FAULT, 0, 1, action="x"))
            raise RuntimeError("mid-run crash")
    doc = json.loads(path.read_text())
    assert any(e.get("cat") == "fault" for e in doc["traceEvents"])


def test_jsonl_flush_every_bounds_buffered_loss(tmp_path):
    """With flush_every=2, an unclosed sink has at most one buffered
    event -- the on-disk prefix is always parseable."""
    path = tmp_path / "stream.jsonl"
    sink = JsonlTraceSink(path, flush_every=2)
    for i in range(5):
        sink.emit(_event(i * 10, EventKind.FAULT, 0, 0, action="a"))
    # not closed: only the flushed prefix is guaranteed on disk
    flushed = path.read_text().splitlines()
    assert len(flushed) >= 4
    for line in flushed:
        json.loads(line)
    sink.close()
    assert len(path.read_text().splitlines()) == 5


def test_cli_run_closes_sinks_when_the_run_raises(tmp_path, capsys,
                                                  monkeypatch):
    """The CLI flushes trace sinks in a finally: a crashing workload
    leaves the streamed trace parseable, not buffered away."""
    from repro import cli as cli_mod

    def boom(kernel, program):
        raise RuntimeError("workload exploded")

    monkeypatch.setattr(cli_mod, "run_program", boom)
    path = tmp_path / "t.jsonl"
    with pytest.raises(RuntimeError):
        cli_mod.main(["gauss", "-n", "8", "-p", "2",
                      "--trace-out", str(path)])
    capsys.readouterr()
    assert path.exists()  # opened, flushed and closed despite the crash


# -- Prometheus text exposition -----------------------------------------------


def prom_registry():
    from repro.telemetry import MetricsRegistry

    reg = MetricsRegistry(enabled=True)
    c = reg.counter("repro_faults_total", "coherent page faults",
                    labels=("processor",))
    c.labels(0).inc(3)
    c.labels(1).inc(2)
    reg.gauge("repro_frozen_pages", "currently frozen pages").set(4)
    h = reg.histogram("repro_fault_ns", "fault latency",
                      buckets=(10, 100))
    for value in (5, 50, 5000):
        h.observe(value)
    return reg


def test_to_prometheus_renders_families_and_histograms():
    from repro.telemetry import to_prometheus

    text = to_prometheus(prom_registry())
    assert "# TYPE repro_faults_total counter" in text
    assert 'repro_faults_total{processor="0"} 3' in text
    assert "# HELP repro_frozen_pages currently frozen pages" in text
    # cumulative buckets end at +Inf == _count
    assert 'repro_fault_ns_bucket{le="10"} 1' in text
    assert 'repro_fault_ns_bucket{le="100"} 2' in text
    assert 'repro_fault_ns_bucket{le="+Inf"} 3' in text
    assert "repro_fault_ns_count 3" in text
    assert "repro_fault_ns_sum 5055" in text
    assert text.endswith("\n")


def test_to_prometheus_passes_its_own_lint():
    from repro.telemetry import lint_prometheus, to_prometheus

    assert lint_prometheus(to_prometheus(prom_registry())) == []


def test_records_to_prometheus_round_trips_collect():
    from repro.telemetry import (
        lint_prometheus,
        records_to_prometheus,
        to_prometheus,
    )

    reg = prom_registry()
    text = records_to_prometheus(reg.collect())
    assert lint_prometheus(text) == []
    # same samples as the direct path, minus the HELP lines
    direct = [line for line in to_prometheus(reg).splitlines()
              if not line.startswith("# HELP")]
    assert text.splitlines() == direct


def test_lint_prometheus_catches_structural_problems():
    from repro.telemetry import lint_prometheus

    assert any("no TYPE" in p for p in lint_prometheus("x 1\n"))
    assert any("blank" in p for p in lint_prometheus(
        "# TYPE x counter\n\nx 1\n"))
    assert any("duplicate TYPE" in p for p in lint_prometheus(
        "# TYPE x counter\nx 1\n# TYPE x counter\n"))
    assert any("after its samples" in p for p in lint_prometheus(
        "x 1\n# TYPE x counter\n"))
    missing_inf = (
        "# TYPE h histogram\n"
        'h_bucket{le="10"} 1\n'
        "h_sum 5\nh_count 1\n"
    )
    assert any("+Inf" in p for p in lint_prometheus(missing_inf))
    decreasing = (
        "# TYPE h histogram\n"
        'h_bucket{le="10"} 2\n'
        'h_bucket{le="100"} 1\n'
        'h_bucket{le="+Inf"} 2\n'
        "h_sum 5\nh_count 2\n"
    )
    assert any("not cumulative" in p
               for p in lint_prometheus(decreasing))
