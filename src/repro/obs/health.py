"""Worker-pool health: task counts, heartbeats, stall detection.

The sweep runner (``repro.bench.sweep``) is the fleet's execution plane;
this module is its observability plane.  A :class:`PoolHealth` instance
is threaded through the runner's lifecycle hooks and

* counts tasks, failures, timeouts, respawns, worker deaths and stalls
  (:meth:`PoolHealth.summary`, which ``repro bench`` prints and the run
  ledger records as ``pool.summary``);
* emits a throttled ``pool.heartbeat`` tick on the ambient run ledger
  -- busy workers, queue depth, completions -- which ``repro obs ledger
  --follow`` renders;
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

from . import ledger as _ledger


class PoolHealth:
    """Counts, heartbeats and stall warnings for one sweep."""

    def __init__(
        self,
        heartbeat_s: float = 1.0,
        stall_after_s: float = 30.0,
        clock=time.perf_counter,
    ) -> None:
        self.heartbeat_s = heartbeat_s
        self.stall_after_s = stall_after_s
        self.counts = dict.fromkeys(
            ("tasks", "failures", "timeouts", "respawns", "deaths",
             "stalls"), 0)
        self._clock = clock
        self._last_beat: Optional[float] = None
        #: worker id -> (task name, assignment clock time)
        self._busy: dict[int, tuple[str, float]] = {}
        #: worker ids already warned for their current task
        self._stalled: set[int] = set()

    # -- lifecycle hooks (called by the sweep runner) -----------------------

    def task_assigned(self, worker: int, task_name: str) -> None:
        self._busy[worker] = (task_name, self._clock())
        self._stalled.discard(worker)

    def task_finished(self, worker, ok: bool) -> None:
        # timeouts are counted by task_timed_out (the kill decision),
        # not here, so a timed-out task is not double-counted
        if isinstance(worker, int):
            self._busy.pop(worker, None)
            self._stalled.discard(worker)
        self.counts["tasks"] += 1
        if not ok:
            self.counts["failures"] += 1

    def worker_died(self, worker: int, task_name: str,
                    exitcode=None) -> None:
        self._busy.pop(worker, None)
        self._stalled.discard(worker)
        self.counts["deaths"] += 1
        _ledger.event("pool.worker_death", worker=worker,
                      task=task_name, exitcode=exitcode)

    def worker_respawned(self, worker: int) -> None:
        self.counts["respawns"] += 1
        _ledger.event("pool.respawn", worker=worker)

    def task_timed_out(self, worker: int, task_name: str,
                       timeout_s: float) -> None:
        self.counts["timeouts"] += 1
        _ledger.event("pool.timeout", worker=worker, task=task_name,
                      timeout_s=timeout_s)

    # -- heartbeats and stalls ----------------------------------------------

    def heartbeat(self, pending: int, workers: int,
                  force: bool = False) -> bool:
        """Throttled ``pool.heartbeat`` tick + stall sweep; call from the
        poll loop.  Returns whether a tick was taken."""
        now = self._clock()
        self._check_stalls(now)
        if not force and self._last_beat is not None \
                and now - self._last_beat < self.heartbeat_s:
            return False
        self._last_beat = now
        _ledger.tick(
            "pool.heartbeat", busy=len(self._busy), pending=pending,
            workers=workers, tasks_done=self.counts["tasks"],
        )
        return True

    def _check_stalls(self, now: float) -> None:
        for worker, (task_name, since) in self._busy.items():
            if worker in self._stalled:
                continue
            busy_s = now - since
            if busy_s > self.stall_after_s:
                self._stalled.add(worker)
                self.counts["stalls"] += 1
                _ledger.event(
                    "pool.stall", worker=worker, task=task_name,
                    wall={"busy_s": round(busy_s, 3)},
                )

    def summary(self) -> dict:
        """The six counts, for ledger/bench embedding."""
        return dict(self.counts)
