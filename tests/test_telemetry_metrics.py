"""Tests for the metrics registry (repro.telemetry.metrics)."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_kernel, run_program
from repro.core.trace import EventKind
from repro.telemetry import DEFAULT_NS_BUCKETS, MetricError, MetricsRegistry
from repro.workloads import GaussianElimination


# -- instrument mechanics ------------------------------------------------------


def test_disabled_registry_ignores_writes():
    reg = MetricsRegistry()
    c = reg.counter("c", "a counter")
    g = reg.gauge("g", "a gauge")
    h = reg.histogram("h", "a histogram")
    c.inc()
    g.set(7)
    h.observe(123.0)
    assert c.total == 0
    assert g.total == 0
    assert h.total == 0


def test_enabled_counter_gauge_histogram():
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("c")
    c.inc()
    c.inc(2.5)
    assert c.total == 3.5
    g = reg.gauge("g")
    g.set(4)
    g.set(9)
    assert g.total == 9
    h = reg.histogram("h", buckets=(10, 100))
    h.observe(5)
    h.observe(50)
    h.observe(5000)
    child = h.labels()
    assert child.counts == [1, 1, 1]  # <=10, <=100, +Inf
    assert child.count == 3
    assert child.sum == 5055


def test_labels_cached_and_summed():
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("faults", labels=("processor",))
    a = c.labels(0)
    b = c.labels(0)
    assert a is b
    c.labels(0).inc()
    c.labels(1).inc(2)
    assert c.total == 3
    series = {tuple(d.items()): ch.value for d, ch in c.series()}
    assert series == {(("processor", 0),): 1.0, (("processor", 1),): 2.0}


def test_label_arity_is_checked():
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("c", labels=("a", "b"))
    with pytest.raises(MetricError):
        c.labels(1)


def test_add_is_labels_then_inc_in_one_call():
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("c", labels=("a", "b"))
    c.add(1, "x")
    c.add(0, "y", amount=2)
    c.labels(2, "z")
    c.add(1, "x")
    # children in first-bound order, whichever call bound them
    assert [(labels, child.value) for labels, child in c.series()] == [
        ({"a": 1, "b": "x"}, 2.0), ({"a": 0, "b": "y"}, 2.0),
        ({"a": 2, "b": "z"}, 0.0)]
    with pytest.raises(MetricError):
        c.add(1)
    u = reg.counter("u")
    u.add(amount=3)
    assert u.total == 3.0


def test_registration_is_idempotent_but_type_clash_raises():
    reg = MetricsRegistry()
    a = reg.counter("n", labels=("x",))
    b = reg.counter("n", labels=("x",))
    assert a is b
    with pytest.raises(MetricError):
        reg.gauge("n", labels=("x",))
    with pytest.raises(MetricError):
        reg.counter("n", labels=("x", "y"))


def test_enable_midway_counts_only_after():
    reg = MetricsRegistry()
    c = reg.counter("c")
    c.inc()
    reg.enable()
    c.inc()
    assert c.total == 1


# -- rendering ----------------------------------------------------------------


def test_collect_and_jsonl_shapes():
    reg = MetricsRegistry(enabled=True)
    reg.counter("c", "help", labels=("p",), unit="ops").labels(3).inc()
    reg.histogram("h", buckets=(1.0,)).observe(0.5)
    records = reg.collect()
    by_name = {r["name"]: r for r in records}
    assert by_name["c"]["type"] == "counter"
    assert by_name["c"]["labels"] == {"p": 3}
    assert by_name["c"]["value"] == 1.0
    assert by_name["c"]["unit"] == "ops"
    assert by_name["h"]["buckets"] == [1.0]
    assert by_name["h"]["counts"] == [1, 0]
    for line in reg.to_jsonl().splitlines():
        rec = json.loads(line)
        assert rec["record"] == "metric"


def test_totals_and_summary():
    reg = MetricsRegistry(enabled=True)
    reg.counter("c").inc(2)
    reg.gauge("g").set(5)
    reg.histogram("h").observe(10)
    assert reg.totals() == {"c": 2.0, "g": 5.0, "h": 1.0}
    s = reg.summary()
    assert s["counters"] == {"c": 2.0}
    assert s["gauges"] == {"g": 5.0}
    assert s["histograms"] == {"h": {"count": 1.0, "sum": 10.0}}


def test_format_is_readable():
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("faults_total", labels=("processor",))
    c.labels(0).inc()
    c.labels(1).inc()
    text = reg.format()
    assert "faults_total" in text
    assert "{processor=0}" in text


def test_default_ns_buckets_are_increasing():
    assert list(DEFAULT_NS_BUCKETS) == sorted(DEFAULT_NS_BUCKETS)


# -- integration with the simulated kernel ------------------------------------


@pytest.fixture(scope="module")
def metered_run():
    kernel = make_kernel(n_processors=4, metrics=True)
    result = run_program(kernel, GaussianElimination(
        n=24, n_threads=4, verify_result=False,
    ))
    return kernel, result


def test_counters_agree_with_the_post_mortem_report(metered_run):
    kernel, result = metered_run
    totals = kernel.metrics.totals()
    report = result.report
    assert totals["faults_total"] == report.total_faults
    assert totals["shootdowns_total"] == \
        kernel.coherent.shootdown.shootdowns
    assert totals["transfers_total"] == report.transfers
    assert totals["shootdown_ipis_total"] == report.ipis


def test_freeze_thaw_counters_match_page_stats(metered_run):
    kernel, _ = metered_run
    rows = list(kernel.coherent.cpages)
    totals = kernel.metrics.totals()
    assert totals["freezes_total"] == sum(
        cp.stats.freezes for cp in rows
    )
    assert totals["thaws_total"] == sum(cp.stats.thaws for cp in rows)


def test_handler_latency_histogram_observes_every_fault(metered_run):
    kernel, result = metered_run
    h = kernel.metrics.get("fault_handler_ns")
    assert h.total == result.report.total_faults


def test_inlined_fault_histograms_match_observe():
    """The fault handler bins its two latencies inline.  Fed the same
    values -- each FAULT event's ``dur`` and ``wait``, in recording
    order -- the reference ``_HistogramChild.observe`` must reach the
    same counts, sum and count."""
    kernel = make_kernel(n_processors=4, metrics=True, trace=True)
    run_program(kernel, GaussianElimination(
        n=24, n_threads=4, verify_result=False,
    ))
    faults = [e for e in kernel.coherent.tracer.events
              if e.kind is EventKind.FAULT]
    assert kernel.coherent.tracer.dropped == 0
    reference = MetricsRegistry(enabled=True)
    for name, field in (("fault_handler_ns", "dur"),
                        ("fault_wait_ns", "wait")):
        want = reference.histogram(name, unit="ns").labels()
        for event in faults:
            want.observe(event.detail[field])
        got = kernel.metrics.get(name).labels()
        assert (got.counts, got.sum, got.count) == \
            (want.counts, want.sum, want.count), name
        assert sum(1 for c in got.counts if c) > 1, name  # not one bucket


def test_default_kernel_has_disabled_registry():
    kernel = make_kernel(n_processors=2)
    assert kernel.metrics.enabled is False
    run_program(kernel, GaussianElimination(
        n=8, n_threads=2, verify_result=False,
    ))
    assert kernel.metrics.totals()["faults_total"] == 0


# -- registry edge cases: bucket boundaries, cardinality, bad files -----------


def test_histogram_boundary_value_lands_in_lower_bucket():
    """Bucket semantics are ``value <= bound``: an observation exactly
    on a bound counts in that bound's bucket, not the next one."""
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry(enabled=True)
    h = registry.histogram("h", buckets=(1.0, 10.0))
    h.observe(1.0)   # exactly the first bound
    h.observe(10.0)  # exactly the last bound
    h.observe(10.000001)  # just past: +Inf bucket
    child = h.labels()
    assert child.counts == [1, 1, 1]
    assert child.count == 3
    assert child.sum == pytest.approx(21.000001)


def test_histogram_extreme_values_hit_edge_buckets():
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry(enabled=True)
    h = registry.histogram("h", buckets=(1.0, 10.0))
    h.observe(0.0)
    h.observe(-5.0)            # below every bound: first bucket
    h.observe(float("inf"))    # above every bound: +Inf bucket
    assert h.labels().counts == [2, 0, 1]


def test_label_cardinality_growth_tracks_every_series():
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry(enabled=True)
    c = registry.counter("req_total", labels=("who",))
    for i in range(50):
        c.labels(f"worker-{i}").inc(i)
    series = list(c.series())
    assert len(series) == 50
    assert c.total == sum(range(50))
    # collect() renders one record per (metric, label set)
    records = [r for r in registry.collect()
               if r["name"] == "req_total"]
    assert len(records) == 50


def test_format_truncates_high_cardinality_metrics():
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry(enabled=True)
    c = registry.counter("req_total", labels=("who",))
    for i in range(50):
        c.labels(f"worker-{i}").inc()
    text = registry.format(max_series=12)
    assert "... and 38 more series" in text


def test_metrics_from_empty_file_is_a_oneline_error(tmp_path, capsys):
    from repro.cli import main

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["metrics", "--from", str(empty)])
    out = capsys.readouterr().out
    assert code == 2
    assert "no metric or sample records" in out
    assert len(out.strip().splitlines()) == 1


def test_metrics_from_corrupt_file_is_a_oneline_error(tmp_path, capsys):
    from repro.cli import main

    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text('{"record": "metric", "name": "x", "value": 1}\n'
                       "{torn-line")
    code = main(["metrics", "--from", str(corrupt)])
    out = capsys.readouterr().out
    assert code == 2
    assert "not JSON" in out
    assert ":2:" in out  # names the offending line


# -- histogram overflow hardening ---------------------------------------------


def test_out_of_range_observation_lands_in_inf_bucket():
    reg = MetricsRegistry(enabled=True)
    h = reg.histogram("h", buckets=(10, 100))
    h.observe(1e12)
    h.observe(-5)  # below the lowest bound still bins (<= 10)
    child = h.labels()
    assert child.counts == [1, 0, 1]
    assert child.count == 2
    assert sum(child.counts) == child.count  # conservation


def test_nan_and_infinite_observations_are_counted_not_lost():
    reg = MetricsRegistry(enabled=True)
    h = reg.histogram("h", buckets=(10,))
    h.observe(float("nan"))
    h.observe(float("inf"))
    h.observe(float("-inf"))  # -inf <= 10: the first bucket
    h.observe(5)
    child = h.labels()
    assert child.count == 4
    assert sum(child.counts) == 4  # every observation binned somewhere
    assert child.counts[-1] == 2  # NaN + +Inf in the overflow bucket
    assert child.sum == 5  # non-finite values never poison the sum


def linear_scan_observe(child, value):
    """``_HistogramChild.observe`` before it binned with ``bisect_left``:
    the first bound >= value, by a linear scan."""
    child.count += 1
    if value != value:
        child.counts[-1] += 1
        return
    if -math.inf < value < math.inf:
        child.sum += value
    for i, bound in enumerate(child.buckets):
        if value <= bound:
            child.counts[i] += 1
            return
    child.counts[-1] += 1


def edge_values(buckets):
    """Every bound, its float neighbours, the midpoints between bounds,
    both infinities, NaN and negative values."""
    values = [-math.inf, math.inf, math.nan, -1e12, -5, -0.0, 0, 1e300]
    for bound in buckets:
        values += [bound, int(bound), math.nextafter(bound, -math.inf),
                   math.nextafter(bound, math.inf)]
    values += [(a + b) / 2 for a, b in zip(buckets, buckets[1:])]
    return values


OBSERVED = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**9, 10**9),
)


@settings(max_examples=200, deadline=None)
@given(extra=st.lists(OBSERVED, max_size=30))
def test_observe_bins_as_the_linear_scan_did(extra):
    """Value by value, and so cumulatively over the whole list."""
    for buckets in (DEFAULT_NS_BUCKETS, (1.0,), (-3.0, 0.0, 2.5)):
        reg = MetricsRegistry(enabled=True)
        new = reg.histogram("new", buckets=buckets).labels()
        old = reg.histogram("old", buckets=buckets).labels()
        for value in edge_values(buckets) + extra:
            new.observe(value)
            linear_scan_observe(old, value)
            assert (new.counts, new.sum, new.count) == \
                (old.counts, old.sum, old.count), value


def test_bucket_bounds_are_sorted_deduped_and_inf_dropped():
    reg = MetricsRegistry(enabled=True)
    h = reg.histogram("h", buckets=(100, 10, 10, float("inf")))
    assert h.buckets == (10.0, 100.0)
    h.observe(50)
    assert h.labels().counts == [0, 1, 0]


def test_degenerate_bucket_sets_are_registration_errors():
    reg = MetricsRegistry(enabled=True)
    with pytest.raises(MetricError, match="at least one finite"):
        reg.histogram("empty", buckets=())
    with pytest.raises(MetricError, match="at least one finite"):
        reg.histogram("only_inf", buckets=(float("inf"),))
    with pytest.raises(MetricError, match="NaN"):
        reg.histogram("nan", buckets=(float("nan"), 10))


def test_collect_conserves_counts_under_overflow():
    reg = MetricsRegistry(enabled=True)
    h = reg.histogram("h", buckets=(1, 2))
    for value in (0.5, 1.5, 99, float("nan")):
        h.observe(value)
    (record,) = [r for r in reg.collect() if r["name"] == "h"]
    assert record["count"] == 4
    assert sum(record["counts"]) == record["count"]
