"""Tests for the kernel's post-mortem memory report."""

from repro import make_kernel, run_program
from repro.runtime import Program, Read, Write

from tests.test_runtime_executor import StridedReader


class TwoPagePattern(Program):
    name = "two-page"

    def setup(self, api):
        arena = api.arena(2, label="data")
        self.a = arena.alloc(4, page_aligned=True)
        self.b = arena.alloc(4, page_aligned=True)
        self.bar = api.barrier(api.arena(1, label="sync"), 2)
        for p in range(2):
            api.spawn(p, self.body, name=f"t{p}")

    def body(self, env):
        yield Write(self.a + env.tid, env.tid)
        yield from self.bar.wait()
        yield Read(self.b, 4)
        return env.tid


def _run():
    kernel = make_kernel(n_processors=2)
    return run_program(kernel, TwoPagePattern())


def test_report_totals_and_rows():
    result = _run()
    report = result.report
    assert report.total_faults > 0
    assert report.sim_time_ms > 0
    labels = {row.label for row in report.rows}
    assert any(label.startswith("data") for label in labels)
    assert any(label.startswith("sync") for label in labels)


def test_report_rows_reflect_cpage_stats():
    result = _run()
    table = result.kernel.coherent.cpages
    report = result.report
    for row in report.rows:
        cpage = table.get(row.index)
        assert row.faults == cpage.stats.faults
        assert row.frozen == cpage.frozen
        assert row.state == cpage.state.value


def test_format_produces_readable_table():
    result = _run()
    text = result.report.format()
    assert "memory management post-mortem" in text
    assert "cpage" in text
    assert "frozen" in text
    # only pages with faults are listed by default
    assert "simulated time" in text


def test_hottest_sorting():
    result = _run()
    hottest = result.report.hottest(3)
    waits = [r.handler_wait_ms for r in hottest]
    assert waits == sorted(waits, reverse=True)


def test_frozen_page_listings():
    result = _run()
    report = result.report
    for row in report.frozen_pages:
        assert row.frozen
    for row in report.ever_frozen_pages:
        assert row.was_frozen


def test_report_only_active_filter():
    kernel = make_kernel(n_processors=2)
    run_program(kernel, StridedReader())
    report = kernel.report()
    full = report.format(only_active=False, max_rows=100)
    active = report.format(only_active=True, max_rows=100)
    assert len(full.splitlines()) >= len(active.splitlines())
