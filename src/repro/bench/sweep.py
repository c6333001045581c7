"""Parallel sweep runner: shard independent simulation configurations
across a pool of worker processes.

The paper's evaluation is a sweep -- every figure and table replays many
(workload, policy, processor-count) configurations -- and each
configuration is an isolated, deterministic, CPU-bound simulation on a
fresh kernel.  That makes the sweep embarrassingly parallel, so this
module runs tasks on a persistent pool of ``jobs`` worker processes:

* workers are forked once and stream tasks through queues, so the
  per-task overhead is one small pickle round-trip, not a process
  launch;
* a per-task wall-clock timeout is enforced by terminating (and then
  respawning) the worker -- a runaway configuration cannot hang the
  sweep;
* deterministic per-task seeding (a stable hash of the task name), so
  results are independent of scheduling order and of ``jobs``;
* graceful degradation: if worker processes cannot be created (no
  ``/dev/shm``, restricted sandbox, ...), the sweep falls back to
  running the remaining tasks serially in-process.

Tasks are described by picklable *specs* (plain dicts) executed by
:func:`repro.bench.targets.execute_point`; results come back as plain
dicts.  Nothing here imports the simulator: the executor is imported
lazily, so with the default ``fork`` start method a parent that warmed
the import shares it with every worker.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Task:
    """One shardable unit of work: a named, seeded point spec."""

    name: str
    spec: dict
    seed: int = 0
    timeout_s: Optional[float] = None


@dataclass
class TaskResult:
    """Outcome of one task."""

    name: str
    ok: bool
    value: Optional[dict] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    seed: int = 0
    timed_out: bool = False
    #: which worker ran it: a pool worker id, or "serial"
    worker: object = None
    #: wall seconds the task sat unassigned before a worker took it
    queue_wait_s: float = 0.0
    #: the span segment measured inside the worker process (pid, wall
    #: t0/duration, propagated parent sid);
    #: observability data only -- never part of the BENCH point
    span: Optional[dict] = field(default=None, repr=False)

    def to_point(self, config: Optional[dict] = None) -> dict:
        """Render as a BENCH document point entry."""
        return {
            "name": self.name,
            "config": config if config is not None else {},
            "metrics": self.value if self.ok else None,
            "error": self.error,
            "ok": self.ok,
            "seed": self.seed,
            "wall_s": round(self.wall_s, 4),
        }


def task_seed(base_seed: int, name: str) -> int:
    """Deterministic per-task seed: stable across runs, processes and
    orderings (CRC32 of the task name folded with the base seed)."""
    return (base_seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0x7FFFFFFF


def make_tasks(
    specs: list[tuple[str, dict]],
    base_seed: int = 0,
    timeout_s: Optional[float] = None,
) -> list[Task]:
    """Build seeded tasks from (name, spec) pairs."""
    return [
        Task(
            name=name,
            spec=spec,
            seed=task_seed(base_seed, name),
            timeout_s=timeout_s,
        )
        for name, spec in specs
    ]


def _execute(spec: dict, seed: int) -> dict:
    # imported lazily so importing this module never loads the simulator
    # and so tests can monkeypatch execute_point
    from .targets import execute_point

    return execute_point(spec, seed)


def _run_task_segment(spec: dict, seed: int,
                      ctx: Optional[dict]) -> tuple[dict, dict]:
    """Execute one task and measure its span segment in this process.

    Returns ``(value, span)`` where ``span`` carries the propagated
    ledger parent from ``ctx`` plus the wall-clock facts only the
    executing process knows (its pid and the in-process run duration)
    -- the cross-process half of a ``bench.point`` span.
    """
    span: dict = {
        "pid": os.getpid(),
        "t0_s": round(time.time(), 6),
        "parent": (ctx or {}).get("parent"),
    }
    t0 = time.perf_counter()
    try:
        value = _execute(spec, seed)
    finally:
        span["exec_dur_s"] = round(time.perf_counter() - t0, 6)
    return value, span


def _worker_loop(worker_id: int, task_q, result_q) -> None:
    """Worker-process entry point: stream tasks until the None sentinel.

    Each message on ``task_q`` is ``(index, spec, seed, ctx)``; each
    reply on ``result_q`` is
    ``(worker_id, index, kind, payload, wall_s, span)``.
    """
    while True:
        item = task_q.get()
        if item is None:
            return
        index, spec, seed, ctx = item
        t0 = time.perf_counter()
        span: Optional[dict] = None
        try:
            value, span = _run_task_segment(spec, seed, ctx)
            result_q.put(
                (worker_id, index, "ok", value,
                 time.perf_counter() - t0, span)
            )
        except BaseException:  # noqa: BLE001 - the parent needs the report
            result_q.put(
                (worker_id, index, "error",
                 traceback.format_exc(limit=8),
                 time.perf_counter() - t0, span)
            )


@dataclass
class _Worker:
    id: int
    process: "mp.Process"
    task_q: "mp.Queue"
    #: (task index, Task, assignment time, queue wait) while busy
    busy: Optional[tuple[int, Task, float, float]] = None


class SweepRunner:
    """Runs a list of :class:`Task` on a bounded worker pool.

    ``jobs <= 1`` (or any failure to spawn workers) runs serially
    in-process; results are identical either way because every task is a
    deterministic simulation seeded by its name, not by scheduling.
    """

    def __init__(
        self,
        jobs: int = 1,
        progress: Optional[Callable[[TaskResult], None]] = None,
        poll_interval_s: float = 0.05,
        health=None,
        span_parent: Optional[int] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.progress = progress
        self.poll_interval_s = poll_interval_s
        #: optional repro.obs.PoolHealth observability plane
        self.health = health
        #: ledger span id propagated to workers as their span parent
        self.span_parent = span_parent
        #: True once the runner has degraded to serial execution
        self.degraded = False

    def _ctx(self) -> dict:
        """The context dict propagated across the process boundary."""
        return {"parent": self.span_parent}

    # -- serial ------------------------------------------------------------

    def _run_serial(self, task: Task) -> TaskResult:
        t0 = time.perf_counter()
        span: Optional[dict] = None
        try:
            value, span = _run_task_segment(task.spec, task.seed,
                                            self._ctx())
            result = TaskResult(
                name=task.name, ok=True, value=value,
                wall_s=time.perf_counter() - t0, seed=task.seed,
                worker="serial", span=span,
            )
        except BaseException:  # noqa: BLE001 - reported per-task
            result = TaskResult(
                name=task.name, ok=False,
                error=traceback.format_exc(limit=8),
                wall_s=time.perf_counter() - t0, seed=task.seed,
                worker="serial", span=span,
            )
        if self.health is not None:
            self.health.task_finished("serial", result.ok)
            # the serial path has no poll loop: beat here so a
            # ledger --follow reader still sees pool.heartbeat ticks
            self.health.heartbeat(pending=0, workers=0)
        if self.progress is not None:
            self.progress(result)
        return result

    # -- the pool ----------------------------------------------------------

    def _spawn_worker(
        self, worker_id: int, result_q
    ) -> Optional[_Worker]:
        """Start one pool worker; None means degrade to serial."""
        try:
            ctx = mp.get_context()
            task_q: mp.Queue = ctx.Queue()
            process = ctx.Process(
                target=_worker_loop,
                args=(worker_id, task_q, result_q),
                daemon=True,
            )
            process.start()
        except (OSError, ValueError, ImportError):
            self.degraded = True
            return None
        return _Worker(id=worker_id, process=process, task_q=task_q)

    def _finish(self, worker: _Worker, result: TaskResult,
                results: list, index: int) -> None:
        if worker.busy is not None:
            result.queue_wait_s = worker.busy[3]
        if result.worker is None:
            result.worker = worker.id
        results[index] = result
        worker.busy = None
        if self.health is not None:
            self.health.task_finished(worker.id, result.ok)
        if self.progress is not None:
            self.progress(result)

    def _check_busy_worker(
        self, worker: _Worker, results: list, result_q
    ) -> bool:
        """Handle a busy worker's timeout or death.

        Returns True if the worker must be respawned (its process is
        gone); the pending task has then already been resolved.
        """
        index, task, started, _wait = worker.busy
        elapsed = time.perf_counter() - started
        if worker.process.is_alive():
            if task.timeout_s is not None and elapsed > task.timeout_s:
                # a result may have raced in just before the deadline
                try:
                    worker_id, r_index, kind, payload, wall, span = \
                        result_q.get_nowait()
                except queue_mod.Empty:
                    pass
                else:
                    if r_index == index:
                        self._finish(worker, self._from_message(
                            task, kind, payload, wall, span),
                            results, index)
                        return False
                    self._resolve_foreign(worker_id, r_index, kind,
                                          payload, wall, span, results)
                if self.health is not None:
                    self.health.task_timed_out(
                        worker.id, task.name, task.timeout_s)
                worker.process.terminate()
                worker.process.join(timeout=5.0)
                self._finish(worker, TaskResult(
                    name=task.name, ok=False,
                    error=(
                        f"timed out after {task.timeout_s:.1f}s "
                        "(worker terminated)"
                    ),
                    wall_s=elapsed, seed=task.seed, timed_out=True,
                ), results, index)
                return True
            return False
        # the worker died without posting a result (crash, OOM-kill);
        # drain any result that raced with the death first
        try:
            worker_id, r_index, kind, payload, wall, span = \
                result_q.get_nowait()
        except queue_mod.Empty:
            pass
        else:
            if r_index == index:
                self._finish(worker, self._from_message(
                    task, kind, payload, wall, span), results, index)
                worker.process.join(timeout=1.0)
                return True
            # a different worker's result: resolve it out of band
            self._resolve_foreign(worker_id, r_index, kind, payload,
                                  wall, span, results)
        worker.process.join(timeout=1.0)
        if self.health is not None:
            self.health.worker_died(worker.id, task.name,
                                    exitcode=worker.process.exitcode)
        self._finish(worker, TaskResult(
            name=task.name, ok=False,
            error=(
                "worker died without a result "
                f"(exitcode {worker.process.exitcode})"
            ),
            wall_s=elapsed, seed=task.seed,
        ), results, index)
        return True

    @staticmethod
    def _from_message(task: Task, kind: str, payload, wall: float,
                      span: Optional[dict] = None) -> TaskResult:
        if kind == "ok":
            return TaskResult(name=task.name, ok=True, value=payload,
                              wall_s=wall, seed=task.seed, span=span)
        return TaskResult(name=task.name, ok=False, error=payload,
                          wall_s=wall, seed=task.seed, span=span)

    def _resolve_foreign(self, worker_id, index, kind, payload, wall,
                         span, results) -> None:
        for other in self._workers:
            if other.id == worker_id and other.busy is not None:
                o_index, o_task, _started, _wait = other.busy
                if o_index == index:
                    self._finish(other, self._from_message(
                        o_task, kind, payload, wall, span),
                        results, o_index)
                return

    # -- driver ------------------------------------------------------------

    def run(self, tasks: list[Task]) -> list[TaskResult]:
        """Run all tasks; results come back in task order."""
        results: list[Optional[TaskResult]] = [None] * len(tasks)
        if self.jobs == 1 or len(tasks) <= 1:
            return [self._run_serial(t) for t in tasks]

        ctx = mp.get_context()
        try:
            result_q: mp.Queue = ctx.Queue()
        except (OSError, ValueError, ImportError):
            self.degraded = True
            return [self._run_serial(t) for t in tasks]

        self._workers: list[_Worker] = []
        for worker_id in range(min(self.jobs, len(tasks))):
            worker = self._spawn_worker(worker_id, result_q)
            if worker is None:
                break
            self._workers.append(worker)
        if not self._workers:
            self.degraded = True
            return [self._run_serial(t) for t in tasks]

        pending = list(enumerate(tasks))
        next_worker_id = len(self._workers)
        sweep_t0 = time.perf_counter()
        try:
            while pending or any(w.busy for w in self._workers):
                # hand a task to every idle worker
                for worker in self._workers:
                    if worker.busy is None and pending:
                        index, task = pending.pop(0)
                        now = time.perf_counter()
                        queue_wait = now - sweep_t0
                        worker.busy = (index, task, now, queue_wait)
                        if self.health is not None:
                            self.health.task_assigned(worker.id, task.name)
                        worker.task_q.put(
                            (index, task.spec, task.seed, self._ctx())
                        )
                busy = [w for w in self._workers if w.busy]
                if not busy:
                    continue
                # wait for one result (or a poll tick for timeouts)
                try:
                    worker_id, index, kind, payload, wall, span = \
                        result_q.get(timeout=self.poll_interval_s)
                except queue_mod.Empty:
                    pass
                else:
                    self._resolve_foreign(worker_id, index, kind,
                                          payload, wall, span, results)
                if self.health is not None:
                    self.health.heartbeat(pending=len(pending),
                                          workers=len(self._workers))
                # sweep for timeouts and dead workers
                respawn: list[_Worker] = []
                for worker in self._workers:
                    if worker.busy is not None and \
                            self._check_busy_worker(worker, results,
                                                    result_q):
                        respawn.append(worker)
                for dead in respawn:
                    self._workers.remove(dead)
                    replacement = self._spawn_worker(
                        next_worker_id, result_q
                    )
                    next_worker_id += 1
                    if replacement is not None:
                        self._workers.append(replacement)
                        if self.health is not None:
                            self.health.worker_respawned(
                                replacement.id)
                if not self._workers:
                    # cannot respawn: finish the remainder serially
                    self.degraded = True
                    for index, task in pending:
                        results[index] = self._run_serial(task)
                    pending = []
                    break
        finally:
            for worker in self._workers:
                try:
                    worker.task_q.put(None)
                except (OSError, ValueError):
                    pass
            for worker in self._workers:
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():
                    worker.process.terminate()
            self._workers = []
        return [r for r in results if r is not None]


def run_sweep(
    tasks: list[Task],
    jobs: int = 1,
    progress: Optional[Callable[[TaskResult], None]] = None,
) -> list[TaskResult]:
    """Convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(jobs=jobs, progress=progress).run(tasks)
