"""The host-time ladder: what one call into each layer costs.

Fixed-work kernels that time calls into the public functions of one
layer at a time (min-of-k, with the inter-quartile spread of the k
repeats as the noise estimate), reference runs of one small private and
one small sharing spec through live / record / exact / fast, the
instrument-tax runs, the sweep-pool kernels and the accuracy figures.
None of it is gated; it says which layer to look at when an end-to-end
number moves.  Everything is measured from here, from outside the
program.
"""

from __future__ import annotations

import gc
import io
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro.bench.sweep import SweepRunner, make_tasks
from repro.bench.targets import execute_point
from repro.check import install_invariant_checker
from repro.core.cmap import Directive
from repro.machine.pmap import Rights
from repro.obs import RunLedger, set_ledger, span
from repro.policy.registry import make_policy
from repro.profile import AccessProbe
from repro.replay import TraceBundle, record_spec, replay_trace
from repro.runtime import make_kernel, run_program
from repro.sim.engine import Engine
from repro.sim.process import Delay, Process
from repro.sim.resource import FifoResource
from repro.telemetry.export import JsonlTraceSink
from repro.telemetry.sampler import SimTimeSampler
from repro.workloads.generate import GeneratedWorkload, run_spec

from . import workloads

#: ops per thread per phase of the two reference specs, and how many
#: times each timed thing is repeated
SIZES = {
    "full": {"private_ops": 250, "sharing_ops": 150, "calls": 20000,
             "pages": 128, "repeats": 5, "runs": 3, "tax_rounds": 5,
             "sweep_points": 400},
    "quick": {"private_ops": 12, "sharing_ops": 8, "calls": 300,
              "pages": 8, "repeats": 3, "runs": 1, "tax_rounds": 1,
              "sweep_points": 4},
}

#: the paper's section 4 figures (ms; shootdown increment in us)
PAPER_SEC4 = {
    "page_copy_ms": (1.11, 1.11),
    "read_miss_clean_ms": (1.34, 1.38),
    "read_miss_modified_ms": (1.38, 1.59),
    "write_miss_present_plus_ms": (0.25, 0.45),
    "shootdown_increment_us": (7.0, 17.0),
}


@dataclass
class Sample:
    """min-of-k with the k repeats' (q3 - q1) / median as its noise."""

    value: float
    noise: float = 0.0


def _reduce(values: list[float]) -> Sample:
    if len(values) < 2:
        return Sample(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return Sample(min(values), (q3 - q1) / median if median else 0.0)


def _scaled(sample: Sample, factor: float) -> Sample:
    return Sample(sample.value * factor, sample.noise)


def _per_call_ns(body: Callable[[int], None], calls: int,
                 repeats: int) -> Sample:
    """``body(calls)`` loops ``calls`` times; ns per loop, min of
    ``repeats``."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        body(calls)
        out.append((time.perf_counter_ns() - t0) / calls)
    return _reduce(out)


def _cpu_s(fn: Callable[[], object], runs: int) -> Sample:
    """CPU seconds of ``fn()``, min of ``runs``; the result is dropped
    and collected outside the clock."""
    out = []
    for _ in range(runs):
        gc.collect()
        t0 = time.process_time()
        result = fn()
        out.append(time.process_time() - t0)
        del result
    return _reduce(out)


def _noop() -> None:
    pass


# -- sim -----------------------------------------------------------------------


def _sim(size: dict) -> dict:
    calls, repeats = size["calls"], size["repeats"]

    def pairs(delay: int):
        def body(n: int) -> None:
            engine = Engine()
            schedule, step = engine.schedule, engine.step
            for _ in range(n):
                schedule(delay, _noop)
                step()
        return body

    def resumes(n: int) -> None:
        engine = Engine()

        def forever():
            while True:
                yield Delay(0)

        Process(engine, forever()).start()
        step = engine.step
        for _ in range(n):
            step()

    def occupies(n: int) -> None:
        occupy = FifoResource("ladder").occupy
        for now in range(n):
            occupy(now, 3)

    return {
        "sim.engine.heap_ns": _per_call_ns(pairs(1), calls, repeats),
        "sim.engine.ready_ns": _per_call_ns(pairs(0), calls, repeats),
        "sim.process.resume_ns": _per_call_ns(resumes, calls, repeats),
        "sim.resource.occupy_ns": _per_call_ns(occupies, calls, repeats),
    }


# -- machine -------------------------------------------------------------------


def _paged_kernel(n_pages: int, policy: str | None = "always",
                  n_processors: int = 16, **params):
    """A kernel with ``n_pages`` single-page Cpages mapped writable at
    vpages ``0..n_pages-1`` of one address space active everywhere."""
    kernel = make_kernel(n_processors=n_processors,
                         policy=make_policy(policy), defrost_enabled=False,
                         **params)
    aspace = kernel.vm.create_address_space()
    cpages = []
    for vpage in range(n_pages):
        cpage = kernel.coherent.cpages.create(home_module=0, label="ladder")
        kernel.coherent.map_page(aspace.asid, vpage, cpage, Rights.WRITE)
        cpages.append(cpage)
    for proc in range(n_processors):
        kernel.coherent.activate(aspace.asid, proc)
    return kernel, aspace.asid, cpages


def _fault_all(kernel, asid: int, n_pages: int, proc: int,
               write: bool) -> None:
    now = kernel.engine.now
    for vpage in range(n_pages):
        kernel.fault(proc, asid, vpage, write, now)


def _machine(size: dict) -> dict:
    calls, repeats = size["calls"], size["repeats"]
    pages = max(size["pages"], 2)
    # an ATC half the page count, so cycling over the pages never hits
    kernel, asid, _cpages = _paged_kernel(
        pages, n_processors=8, atc_entries=pages // 2)
    _fault_all(kernel, asid, pages, 0, False)
    translate = kernel.machine.mmus[0].translate

    def atc_hits(n: int) -> None:
        translate(asid, 0, False)
        for _ in range(n):
            translate(asid, 0, False)

    def pmap_walks(n: int) -> None:
        for i in range(n):
            translate(asid, i % pages, False)

    def misses(n: int) -> None:
        for _ in range(n):
            translate(asid, pages + 7, False)

    machine = kernel.machine
    local = machine.modules[0].allocate()
    remote = machine.modules[5].allocate()

    def accesses(frame):
        def body(n: int) -> None:
            access, t = machine.access, machine.now
            for _ in range(n):
                t = access(0, frame, 16, False, t).completion
        return body

    def copies(n: int) -> None:
        transfer, t = machine.xfer.transfer_page, machine.now
        for _ in range(n):
            t = transfer(local, remote, t)

    return {
        "machine.mmu.atc_hit_ns": _per_call_ns(atc_hits, calls, repeats),
        "machine.mmu.pmap_walk_ns":
            _per_call_ns(pmap_walks, calls, repeats),
        "machine.mmu.miss_ns": _per_call_ns(misses, calls, repeats),
        "machine.machine.access_local_ns":
            _per_call_ns(accesses(local), calls, repeats),
        "machine.machine.access_remote_ns":
            _per_call_ns(accesses(remote), calls, repeats),
        "machine.blockxfer.page_copy_us": _scaled(
            _per_call_ns(copies, max(calls // 10, 1), repeats), 1e-3),
    }


# -- core ----------------------------------------------------------------------


def _timed_us(prepare: Callable[[], tuple], repeats: int) -> Sample:
    """``prepare()`` builds fresh state (untimed) and returns
    ``(body, n)``; host us per unit of ``body()``, min of ``repeats``."""
    out = []
    for _ in range(repeats):
        body, n = prepare()
        t0 = time.perf_counter_ns()
        body()
        out.append((time.perf_counter_ns() - t0) / n / 1e3)
    return _reduce(out)


def _core(size: dict) -> dict:
    pages, repeats = size["pages"], size["repeats"]

    def fault_case(before, proc: int, write: bool,
                   policy_after: str | None = None):
        def prepare():
            kernel, asid, _cpages = _paged_kernel(pages)
            for b_proc, b_write in before:
                _fault_all(kernel, asid, pages, b_proc, b_write)
            if policy_after is not None:
                kernel.coherent.fault_handler.policy = \
                    make_policy(policy_after)
            return (lambda: _fault_all(kernel, asid, pages, proc, write),
                    pages)
        return _timed_us(prepare, repeats)

    def shoot_case(targets: int):
        n = max(pages // 4, 1)

        def prepare():
            kernel, asid, cpages = _paged_kernel(n)
            for proc in range(targets + 1):
                _fault_all(kernel, asid, n, proc, False)
            shoot = kernel.coherent.shootdown.shoot_cpage
            now = kernel.engine.now

            def body() -> None:
                for cpage in cpages:
                    shoot(cpage, Directive.INVALIDATE, 0, now,
                          rights=Rights.NONE)
            return body, n
        return _timed_us(prepare, repeats)

    def defrost_prepare():
        kernel, asid, cpages = _paged_kernel(pages, policy=None)
        _fault_all(kernel, asid, pages, 1, True)
        for cpage in cpages:
            kernel.policy.freeze(cpage, kernel.engine.now)
        _fault_all(kernel, asid, pages, 0, True)
        return kernel.coherent.defrost.run_once, pages

    return {
        # present1 on node 1, read from node 0: replicate (a page copy)
        "core.fault.read_miss_us": fault_case([(1, False)], 0, False),
        # present+ on nodes 0 and 1, write from node 0: collapse
        "core.fault.write_miss_us":
            fault_case([(1, False), (0, False)], 0, True),
        # present1 on node 1, write from node 1: no copy, no shootdown
        "core.fault.upgrade_us": fault_case([(1, False)], 1, True),
        # modified on node 1, never-cache: remote mapping from node 0
        "core.fault.remote_map_us":
            fault_case([(1, True)], 0, True, policy_after="never"),
        "core.shootdown.shoot_us.t1": shoot_case(1),
        "core.shootdown.shoot_us.t4": shoot_case(4),
        "core.shootdown.shoot_us.t15": shoot_case(15),
        "core.defrost.run_once_us_per_page":
            _timed_us(defrost_prepare, repeats),
    }


# -- runtime, replay: reference runs -----------------------------------------------


def _reference_runs(seed: int, size: dict) -> dict:
    runs = size["runs"]
    private = workloads.private_spec(seed, size["private_ops"])
    sharing = workloads.sharing_spec(seed, size["sharing_ops"])
    points = {
        "private": workloads.record_point(private),
        "sharing": workloads.record_point(
            sharing, workloads.SHARING_DEFROST_NS),
    }
    bundles = {key: record_spec(point)[0] for key, point in points.items()}
    live = {
        "private": _cpu_s(lambda: run_spec(private), runs),
        "sharing": _cpu_s(lambda: run_spec(
            sharing, defrost_period=workloads.SHARING_DEFROST_NS), runs),
    }
    record = {key: _cpu_s(lambda p=point: record_spec(p), runs)
              for key, point in points.items()}
    replayed = {
        (mode, key): _cpu_s(
            lambda b=bundle, m=mode: replay_trace(b, mode=m), runs)
        for mode in ("exact", "fast") for key, bundle in bundles.items()
    }

    def us_per_op(mode: str, key: str) -> Sample:
        return _scaled(replayed[mode, key], 1e6 / bundles[key].n_ops)

    # a fresh bundle pays parsing plus the stream decode its first
    # replay caches on it; the already-decoded replay is subtracted
    raw = bundles["sharing"].to_bytes()

    def first_replay():
        return replay_trace(TraceBundle.from_bytes(raw))

    decode = _cpu_s(first_replay, max(runs, 2)).value \
        - replayed["exact", "sharing"].value
    n_private = bundles["private"].n_ops
    return {
        "runtime.run.build_kernel_ms": _scaled(
            _cpu_s(lambda: make_kernel(n_processors=8), size["repeats"]),
            1e3),
        "runtime.executor.op_us":
            _scaled(live["private"], 1e6 / n_private),
        "runtime.program.body_share": Sample(
            1.0 - replayed["exact", "private"].value
            / live["private"].value),
        "replay.recorder.tax": Sample(
            sum(s.value for s in record.values())
            / sum(s.value for s in live.values())),
        "replay.bundle.decode_ms": Sample(max(decode, 0.0) * 1e3),
        "replay.exact.private_us_per_op": us_per_op("exact", "private"),
        "replay.exact.sharing_us_per_op": us_per_op("exact", "sharing"),
        "replay.fast.private_us_per_op": us_per_op("fast", "private"),
        "replay.fast.sharing_us_per_op": us_per_op("fast", "sharing"),
    }


# -- instrument tax ------------------------------------------------------------------


def _instrument_tax(seed: int, size: dict) -> dict:
    """CPU of the sharing reference run with one instrument on, over the
    same run bare.  The configurations take turns, so that a noisy spell
    of the host falls on all of them."""
    spec = workloads.sharing_spec(seed, size["sharing_ops"])

    def config(trace=False, metrics=False, attach=None, around=None):
        def once():
            kernel = make_kernel(
                n_processors=spec.machine, trace=trace, metrics=metrics,
                defrost_period=workloads.SHARING_DEFROST_NS)
            if attach is not None:
                attach(kernel)
            if around is None:
                return run_program(kernel, GeneratedWorkload(spec))
            return around(
                lambda: run_program(kernel, GeneratedWorkload(spec)))
        return once

    def in_ledger(simulate):
        ledger = RunLedger(io.StringIO(), verb="perf")
        previous = set_ledger(ledger)
        try:
            with span("record.simulate"):
                return simulate()
        finally:
            set_ledger(previous)
            ledger.close()

    configs = {
        "bare": config(),
        "telemetry.metrics.tax": config(metrics=True),
        "core.trace.tax": config(trace=True),
        "telemetry.sampler.tax": config(
            attach=lambda k: SimTimeSampler(k, period_ms=1.0).start()),
        "telemetry.export.sink_tax": config(
            attach=lambda k: k.tracer.add_sink(
                JsonlTraceSink(io.StringIO()))),
        "profile.probe.tax": config(
            attach=lambda k: AccessProbe.install(k.coherent)),
        "check.invariants.tax": config(
            attach=lambda k: install_invariant_checker(k.coherent)),
        "obs.ledger.tax": config(around=in_ledger),
    }
    cpu = {name: [] for name in configs}
    for _ in range(size["tax_rounds"]):
        for name, once in configs.items():
            cpu[name].append(_cpu_s(once, 1).value)
    bare = min(cpu.pop("bare"))
    return {name: Sample(min(times) / bare) for name, times in cpu.items()}


# -- bench.sweep ------------------------------------------------------------------------


def sweep_pool(size: dict) -> dict:
    """``echo`` points through ``SweepRunner``.  The pool forks, so the
    traced pass calls this before its span lists grow."""
    n = size["sweep_points"]

    def wall_ms(jobs: int, points: int) -> float:
        tasks = make_tasks(
            [(f"echo{i}", {"kind": "echo", "value": i})
             for i in range(points)])
        t0 = time.perf_counter()
        results = SweepRunner(jobs=jobs).run(tasks)
        wall = (time.perf_counter() - t0) * 1e3
        if len(results) != points or not all(r.ok for r in results):
            raise RuntimeError("sweep pool lost or failed an echo point")
        return wall

    start = min(wall_ms(2, 2) for _ in range(2))
    loaded = min(wall_ms(2, n + 2) for _ in range(2))
    return {
        "bench.sweep.serial_ms_per_point": Sample(wall_ms(1, n) / n),
        "bench.sweep.pool_ms_per_point":
            Sample(max(loaded - start, 0.0) / n),
        "bench.sweep.pool_start_ms": Sample(start),
    }


# -- accuracy ---------------------------------------------------------------------------


def _accuracy() -> dict:
    """The simulated section 4 battery against the paper's figures (0
    inside the published range, else the distance to it), and Table 1."""
    micro = execute_point({"kind": "micro"}, 0)
    worst = 0.0
    for key, (lo, hi) in PAPER_SEC4.items():
        got = micro[key]
        off = max(lo - got, got - hi, 0.0)
        worst = max(worst, 100.0 * off / (lo if got < lo else hi))
    table1 = execute_point({"kind": "table1"}, 0)
    return {
        "workloads.micro.max_err_pct": Sample(worst),
        "analysis.costmodel.table1_mismatches":
            Sample(float(table1["mismatches"])),
    }


def run_all(seed: int, size: dict) -> dict[str, Sample]:
    """Every ladder, tax and accuracy metric except the sweep pool."""
    out: dict[str, Sample] = {}
    for part in (_sim(size), _machine(size), _core(size),
                 _reference_runs(seed, size), _instrument_tax(seed, size),
                 _accuracy()):
        out.update(part)
    return out
