"""Worker-pool health: heartbeats, stall detection, per-worker metrics.

The sweep runner (``repro.bench.sweep``) is the fleet's execution plane;
this module is its observability plane.  A :class:`PoolHealth` instance
is threaded through the runner's lifecycle hooks and

* keeps per-worker counters and pool gauges in a
  :class:`~repro.telemetry.metrics.MetricsRegistry` (the same registry
  machinery the simulator's protocol metrics use, so one exporter
  renders both);
* appends :class:`~repro.telemetry.sampler.SimTimeSampler`-style
  snapshot rows on a wall-clock heartbeat -- what did the pool look
  like over time: busy workers, queue depth, completions, failures;
* detects *stalls*: a worker busy on one task for longer than
  ``stall_after_s`` without producing a result gets one ``pool.stall``
  warning event (distinct from the hard per-task timeout, which kills
  the worker) on the ambient run ledger.

Everything here measures the tooling in wall-clock seconds; nothing
reads or perturbs simulator state, so sweep results are bit-identical
with the health plane on or off.
"""

from __future__ import annotations

import time
from typing import Optional

from ..doc import jsonl
from ..telemetry.metrics import MetricsRegistry
from . import ledger as _ledger

#: histogram bucket bounds for wall-clock seconds (10 ms .. 5 min)
WALL_S_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 300.0)


class PoolHealth:
    """Counters, gauges, heartbeats and stall warnings for one sweep."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        heartbeat_s: float = 1.0,
        stall_after_s: float = 30.0,
        max_snapshots: int = 100_000,
        clock=time.perf_counter,
    ) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry(enabled=True)
        self.heartbeat_s = heartbeat_s
        self.stall_after_s = stall_after_s
        self.max_snapshots = max_snapshots
        self.snapshots: list[dict] = []
        self.dropped = 0
        self._clock = clock
        self._t0 = clock()
        self._last_beat: Optional[float] = None
        #: worker id -> (task name, assignment clock time)
        self._busy: dict[int, tuple[str, float]] = {}
        #: worker ids already warned for their current task
        self._stalled: set[int] = set()
        reg = self.registry
        self._c_tasks = reg.counter(
            "pool_tasks_total", "tasks completed by the pool",
            labels=("worker",))
        self._c_failures = reg.counter(
            "pool_task_failures_total", "tasks that raised or died")
        self._c_timeouts = reg.counter(
            "pool_timeouts_total", "tasks killed at their deadline")
        self._c_respawns = reg.counter(
            "pool_respawns_total", "workers replaced after death/kill")
        self._c_deaths = reg.counter(
            "pool_worker_deaths_total", "workers that died mid-task")
        self._c_stalls = reg.counter(
            "pool_stalls_total", "stall warnings issued")
        self._g_workers = reg.gauge(
            "pool_workers", "live pool workers")
        self._g_busy = reg.gauge(
            "pool_workers_busy", "workers currently running a task")
        self._g_pending = reg.gauge(
            "pool_queue_depth", "tasks not yet assigned")
        self._h_queue_wait = reg.histogram(
            "pool_queue_wait_s", "wall seconds a task waited unassigned",
            unit="s", buckets=WALL_S_BUCKETS)
        self._h_task_wall = reg.histogram(
            "pool_task_wall_s", "wall seconds a task ran",
            unit="s", buckets=WALL_S_BUCKETS)

    # -- lifecycle hooks (called by the sweep runner) -----------------------

    def pool_started(self, workers: int) -> None:
        self._g_workers.set(workers)

    def task_assigned(self, worker: int, task_name: str,
                      queue_wait_s: float) -> None:
        self._busy[worker] = (task_name, self._clock())
        self._stalled.discard(worker)
        self._h_queue_wait.observe(queue_wait_s)
        self._g_busy.set(len(self._busy))

    def task_finished(self, worker, task_name: str, ok: bool,
                      wall_s: float, timed_out: bool = False) -> None:
        # timeouts are counted by task_timed_out (the kill decision),
        # not here, so a timed-out task is not double-counted
        if isinstance(worker, int):
            self._busy.pop(worker, None)
            self._stalled.discard(worker)
        self._c_tasks.labels(str(worker)).inc()
        self._h_task_wall.observe(wall_s)
        if not ok:
            self._c_failures.inc()
        self._g_busy.set(len(self._busy))

    def worker_died(self, worker: int, task_name: str,
                    exitcode=None) -> None:
        self._busy.pop(worker, None)
        self._stalled.discard(worker)
        self._c_deaths.inc()
        _ledger.event("pool.worker_death", worker=worker,
                      task=task_name, exitcode=exitcode)

    def worker_respawned(self, worker: int) -> None:
        self._c_respawns.inc()
        _ledger.event("pool.respawn", worker=worker)

    def task_timed_out(self, worker: int, task_name: str,
                       timeout_s: float) -> None:
        self._c_timeouts.inc()
        _ledger.event("pool.timeout", worker=worker, task=task_name,
                      timeout_s=timeout_s)

    # -- heartbeats and stalls ----------------------------------------------

    def heartbeat(self, pending: int, workers: int,
                  force: bool = False) -> Optional[dict]:
        """Throttled snapshot + stall sweep; call from the poll loop.

        Returns the snapshot row when one was taken, else ``None``.
        """
        now = self._clock()
        if not force and self._last_beat is not None \
                and now - self._last_beat < self.heartbeat_s:
            self._check_stalls(now)
            return None
        self._last_beat = now
        self._g_workers.set(workers)
        self._g_pending.set(pending)
        self._g_busy.set(len(self._busy))
        self._check_stalls(now)
        row = self.snapshot(pending=pending, workers=workers)
        if len(self.snapshots) >= self.max_snapshots:
            self.dropped += 1
        else:
            self.snapshots.append(row)
        _ledger.tick(
            "pool.heartbeat",
            busy=row["busy"], pending=row["pending"],
            workers=row["workers"], tasks_done=row["tasks_done"],
        )
        return row

    def _check_stalls(self, now: float) -> None:
        for worker, (task_name, since) in self._busy.items():
            if worker in self._stalled:
                continue
            busy_s = now - since
            if busy_s > self.stall_after_s:
                self._stalled.add(worker)
                self._c_stalls.inc()
                _ledger.event(
                    "pool.stall", worker=worker, task=task_name,
                    wall={"busy_s": round(busy_s, 3)},
                )

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, pending: int = 0, workers: int = 0) -> dict:
        """One SimTimeSampler-style row of current pool state."""
        totals = self.registry.totals()
        return {
            "record": "pool_sample",
            "t_s": round(self._clock() - self._t0, 6),
            "workers": workers,
            "busy": len(self._busy),
            "pending": pending,
            "tasks_done": int(totals.get("pool_tasks_total", 0)),
            "failures": int(totals.get("pool_task_failures_total", 0)),
            "timeouts": int(totals.get("pool_timeouts_total", 0)),
            "respawns": int(totals.get("pool_respawns_total", 0)),
            "deaths": int(totals.get("pool_worker_deaths_total", 0)),
            "stalls": int(totals.get("pool_stalls_total", 0)),
        }

    def summary(self) -> dict:
        """Deterministic totals for ledger/bench embedding (wall-clock
        histograms excluded; counts only)."""
        totals = self.registry.totals()
        return {
            "tasks": int(totals.get("pool_tasks_total", 0)),
            "failures": int(totals.get("pool_task_failures_total", 0)),
            "timeouts": int(totals.get("pool_timeouts_total", 0)),
            "respawns": int(totals.get("pool_respawns_total", 0)),
            "deaths": int(totals.get("pool_worker_deaths_total", 0)),
            "stalls": int(totals.get("pool_stalls_total", 0)),
        }

    def to_jsonl(self) -> str:
        """Snapshot rows as JSON Lines (mirrors ``SimTimeSampler``)."""
        return jsonl(self.snapshots)
