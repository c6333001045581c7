"""One workload measured in this process: the untraced pass that gives
the end-to-end numbers and the traced pass that gives the per-layer ones.

``run.py`` calls these in a fresh subprocess per workload; the test
calls them directly.  Both passes check every iteration's outputs.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from contextlib import nullcontext

from . import ladder, tracing, workloads

#: never report a median of fewer timed iterations than this
MIN_ITERATIONS = 3
#: iterations of the traced pass, traced and untraced alike
TRACED_ITERATIONS = 3


class _Loop:
    """Runs iterations, checks each against the first, keeps the times."""

    def __init__(self, prepared: workloads.Prepared) -> None:
        self.prepared = prepared
        self.reference = None
        self.cpu_s: list[float] = []
        self.wall_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def once(self, timed: bool = True, span=nullcontext) -> dict | None:
        """One iteration, run inside ``span()``; it fails if a point
        raises (its own checks included) or its simulated statistics
        differ from the first iteration's."""
        gc.collect()
        stats = error = None
        with span():
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                stats = workloads.run_iteration(self.prepared)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                error = f"{type(exc).__name__}: {exc}"
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
        if timed:
            self.cpu_s.append(cpu)
            self.wall_s.append(wall)
        self.attempted += 1
        if stats is None:
            self._fail(error)
        elif self.reference is None:
            self.reference = stats
        elif stats != self.reference:
            self._fail("simulated statistics differ from the first "
                       "iteration's")
        return stats


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, size: str = "full",
            inject_failure: bool = False,
            started_at: float | None = None) -> dict:
    """The untraced pass: set up, warm up, then iterate for ``seconds``
    (and at least ``MIN_ITERATIONS`` times).

    ``started_at`` is the ``time.time()`` at which the caller launched
    this process; set-up time runs from there to the first timed
    iteration.
    """
    if started_at is None:
        started_at = time.time()
    load_start = os.getloadavg()[0]
    prepared = workloads.prepare(
        workload, seed, workloads.SIZES[size], inject_failure)
    loop = _Loop(prepared)
    loop.once(timed=False)  # warm-up: imports, caches, lazy decodes
    gc.collect()
    gc.freeze()
    setup_s = time.time() - started_at
    setup_cpu_s = time.process_time()
    deadline = time.perf_counter() + seconds
    while (len(loop.cpu_s) < MIN_ITERATIONS
           or time.perf_counter() < deadline):
        loop.once()
    reference = loop.reference or {}
    return {
        "n_ops": prepared.n_ops,
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "cpu_s": loop.cpu_s,
        "wall_s": loop.wall_s,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "sim_time_ms": workloads.sim_time_ms(reference),
        "sim_fingerprint": workloads.fingerprint(reference),
        "peak_rss_mb": _peak_rss_mb(),
        "loadavg": [load_start, os.getloadavg()[0]],
    }


# -- the traced pass -----------------------------------------------------------------


def layer_counts(kernels: list, stats: dict, n_ops: int) -> dict:
    """Exact simulated counts of one iteration, read off the kernels it
    built and the replay results it returned."""
    machines = [k.machine for k in kernels]
    resources = [
        res for m in machines
        for res in [mod.bus for mod in m.modules]
        + m.topology.all_resources()
    ]
    cpage_stats = [cp.stats for k in kernels for cp in k.coherent.cpages]

    def total(attr: str) -> int:
        return sum(getattr(s, attr) for s in cpage_stats)

    events = sum(k.engine.events_executed for k in kernels)
    faults = total("faults")
    windows = sum(p.get("windows", 0) for p in stats.values())
    batched = sum(p.get("batched_ops", 0) for p in stats.values())
    return {
        "sim.engine.events": events,
        "sim.engine.events_per_op": events / n_ops,
        "sim.resource.requests": sum(r.requests for r in resources),
        "sim.resource.wait_ms": sum(r.wait_time for r in resources) / 1e6,
        "machine.mmu.atc_hits":
            sum(u.atc.hits for m in machines for u in m.mmus),
        "machine.mmu.atc_misses":
            sum(u.atc.misses for m in machines for u in m.mmus),
        "machine.mmu.faults":
            sum(u.faults for m in machines for u in m.mmus),
        "machine.machine.local_words":
            sum(sum(m.local_words) for m in machines),
        "machine.machine.remote_words":
            sum(sum(m.remote_words) for m in machines),
        "machine.blockxfer.transfers":
            sum(m.xfer.transfer_count for m in machines),
        "machine.interrupts.ipis":
            sum(m.interrupts.totals()["ipis_received"] for m in machines),
        "core.fault.faults": faults,
        "core.fault.read_faults": total("read_faults"),
        "core.fault.write_faults": total("write_faults"),
        "core.fault.replications": total("replications"),
        "core.fault.migrations": total("migrations"),
        "core.fault.remote_mappings": total("remote_mappings"),
        "core.fault.hit_ratio": 1.0 - faults / n_ops,
        "core.shootdown.shootdowns":
            sum(k.coherent.shootdown.shootdowns for k in kernels),
        "core.shootdown.invalidations": total("invalidations"),
        "core.defrost.freezes": total("freezes"),
        "core.defrost.thaws": total("thaws"),
        "replay.fast.windows": windows,
        "replay.fast.batched_ops": batched,
        "replay.fast.batched_ratio": batched / n_ops,
    }


def measure_traced(workload: str, seed: int, size: str = "full",
                   trace_out: str | None = None) -> dict:
    """The traced pass: ``TRACED_ITERATIONS`` untraced iterations of the
    workload, one that is only counted, as many traced, then the ladder.

    Returns ``{"metrics": {name: value}, "noise": {name: share}, ...}``;
    the span file goes to ``trace_out`` when one is named.
    """
    prepared = workloads.prepare(workload, seed, workloads.SIZES[size])
    ladder_size = ladder.SIZES[size]
    samples = ladder.sweep_pool(ladder_size)  # forks: before memory grows
    bare = _Loop(prepared)
    bare.once(timed=False)
    gc.collect()
    gc.freeze()
    for _ in range(TRACED_ITERATIONS):
        bare.once()
    traced = _Loop(prepared)
    traced.reference = bare.reference
    with tracing.captured_kernels() as kernels:
        stats = traced.once(timed=False)
        counts = ({} if stats is None
                  else layer_counts(kernels, stats, prepared.n_ops))
    del kernels
    recorder = tracing.Recorder()
    with recorder.installed():
        for _ in range(TRACED_ITERATIONS):
            traced.once(span=recorder.iteration)
    samples.update(ladder.run_all(seed, ladder_size))
    metrics = dict(counts)
    for layer, share in recorder.self_shares().items():
        metrics[f"{layer}.self_share"] = share
    # fastest over fastest: see run.aggregate on why not the medians
    metrics["trace.overhead_ratio"] = min(traced.cpu_s) / min(bare.cpu_s)
    metrics.update({name: s.value for name, s in samples.items()})
    if trace_out:
        recorder.write_chrome_trace(trace_out)
    return {
        "metrics": metrics,
        "noise": {name: s.noise for name, s in samples.items()},
        "spans": len(recorder.start),
        "attempted": bare.attempted + traced.attempted,
        "failed": bare.failed + traced.failed,
        "errors": bare.errors + traced.errors,
    }
