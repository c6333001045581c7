"""Parallel sweep runner: shard independent simulation configurations
across a pool of worker processes.

The paper's evaluation is a sweep -- every figure and table replays many
(workload, policy, processor-count) configurations -- and each
configuration is an isolated, deterministic, CPU-bound simulation on a
fresh kernel.  That makes the sweep embarrassingly parallel, so this
module runs tasks on a persistent pool of ``jobs`` worker processes:

* workers are forked once and each has its own duplex pipe: the task
  goes down it and the reply comes back up it, so the per-task overhead
  is one small pickle round-trip, not a process launch, and a worker
  that dies (even half-way through a reply) is EOF on its own pipe,
  never a torn message on a shared one;
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
import time
import traceback
import zlib
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
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
    return [Task(name, spec, task_seed(base_seed, name), timeout_s)
            for name, spec in specs]


def _execute(spec: dict, seed: int) -> dict:
    # imported lazily so importing this module never loads the simulator
    # and so tests can monkeypatch execute_point
    from .targets import execute_point

    return execute_point(spec, seed)


def _attempt(spec: dict, seed: int, ctx: Optional[dict]) -> tuple:
    """Run one task in this process: ``(kind, payload, wall_s, span)``,
    the reply a worker sends.  ``kind`` is ``"ok"`` (``payload`` is the
    value) or ``"error"`` (a traceback); ``span`` carries the propagated
    ledger parent from ``ctx`` plus the wall-clock facts only the
    executing process knows (its pid and the in-process run duration)
    -- the cross-process half of a ``bench.point`` span."""
    span = {"pid": os.getpid(), "t0_s": round(time.time(), 6),
            "parent": (ctx or {}).get("parent")}
    t0 = time.perf_counter()
    try:
        value = _execute(spec, seed)
    except BaseException:  # noqa: BLE001 - reported per task
        return ("error", traceback.format_exc(limit=8),
                time.perf_counter() - t0, None)
    wall_s = time.perf_counter() - t0
    span["exec_dur_s"] = round(wall_s, 6)
    return "ok", value, wall_s, span


def _result(task: Task, kind: str, payload, wall_s: float,
            span: Optional[dict]) -> TaskResult:
    ok = kind == "ok"
    return TaskResult(name=task.name, ok=ok, value=payload if ok else None,
                      error=None if ok else payload, wall_s=wall_s,
                      seed=task.seed, span=span)


def _worker_loop(conn, inherited: list) -> None:
    """Worker-process entry point: answer tasks on ``conn`` until EOF.

    Each message is ``(spec, seed, ctx)``; each reply, on the same pipe,
    is :func:`_attempt`'s.  ``inherited`` are the fork's copies of the
    parent's pipe ends: closed first, so that the parent's death is EOF
    here and the worker exits with it.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            spec, seed, ctx = conn.recv()
            conn.send(_attempt(spec, seed, ctx))
        except (EOFError, OSError):
            return


@dataclass
class _Worker:
    id: int
    process: "mp.Process"
    #: the parent's end of the worker's duplex pipe
    conn: object
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
        result = _result(task, *_attempt(task.spec, task.seed, self._ctx()))
        result.worker = "serial"
        if self.health is not None:
            self.health.task_finished("serial", result.ok)
            # the serial path has no poll loop: beat here so a
            # ledger --follow reader still sees pool.heartbeat ticks
            self.health.heartbeat(pending=0, workers=0)
        if self.progress is not None:
            self.progress(result)
        return result

    # -- the pool ----------------------------------------------------------

    def _spawn_worker(self) -> Optional[_Worker]:
        """Start one pool worker; None means degrade to serial."""
        try:
            ctx = mp.get_context()
            conn, child = ctx.Pipe()
            try:
                process = ctx.Process(
                    target=_worker_loop,
                    args=(child, [conn] + [w.conn for w in self._workers]),
                    daemon=True,
                )
                process.start()
            finally:
                child.close()  # the worker holds the only other end
        except (OSError, ValueError, ImportError):
            self.degraded = True
            return None
        self._next_id += 1
        return _Worker(id=self._next_id - 1, process=process, conn=conn)

    def _replace(self, worker: _Worker) -> None:
        """Swap a dead or terminated worker for a fresh one."""
        worker.conn.close()
        self._workers.remove(worker)
        replacement = self._spawn_worker()
        if replacement is not None:
            self._workers.append(replacement)
            if self.health is not None:
                self.health.worker_respawned(replacement.id)

    def _assign(self, worker: _Worker, index: int, task: Task,
                queue_wait: float) -> bool:
        """Send a task; False means the worker had died while idle, so
        the task never reached it."""
        try:
            worker.conn.send((task.spec, task.seed, self._ctx()))
        except OSError:
            return False
        worker.busy = (index, task, time.perf_counter(), queue_wait)
        if self.health is not None:
            self.health.task_assigned(worker.id, task.name)
        return True

    def _finish(self, worker: _Worker, result: TaskResult,
                results: list) -> None:
        index, _task, _started, queue_wait = worker.busy
        result.worker, result.queue_wait_s = worker.id, queue_wait
        results[index] = result
        worker.busy = None
        if self.health is not None:
            self.health.task_finished(worker.id, result.ok)
        if self.progress is not None:
            self.progress(result)

    def _lose(self, worker: _Worker, results: list, error: str,
              timed_out: bool = False) -> None:
        """End a busy worker's task without a result; replace the worker."""
        _index, task, started, _wait = worker.busy
        self._finish(worker, TaskResult(
            name=task.name, ok=False, error=error, seed=task.seed,
            wall_s=time.perf_counter() - started, timed_out=timed_out,
        ), results)
        self._replace(worker)

    def _receive(self, worker: _Worker, results: list) -> None:
        """Take a ready worker's reply, or its death (EOF on its pipe)."""
        task = worker.busy[1]
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            worker.process.join(timeout=1.0)
            exitcode = worker.process.exitcode
            if self.health is not None:
                self.health.worker_died(worker.id, task.name,
                                        exitcode=exitcode)
            self._lose(worker, results, "worker died without a result "
                                        f"(exitcode {exitcode})")
            return
        self._finish(worker, _result(task, *reply), results)

    def _enforce_deadline(self, worker: _Worker, results: list) -> None:
        """Terminate a worker whose task ran past its timeout; a reply
        already on the pipe is taken at the next wait instead."""
        _index, task, started, _wait = worker.busy
        if task.timeout_s is None or worker.conn.poll() \
                or time.perf_counter() - started <= task.timeout_s:
            return
        if self.health is not None:
            self.health.task_timed_out(worker.id, task.name, task.timeout_s)
        worker.process.terminate()
        worker.process.join(timeout=5.0)
        self._lose(worker, results, f"timed out after {task.timeout_s:.1f}s "
                                    "(worker terminated)", timed_out=True)

    # -- driver ------------------------------------------------------------

    def run(self, tasks: list[Task]) -> list[TaskResult]:
        """Run all tasks; results come back in task order, one per task."""
        if self.jobs == 1 or len(tasks) <= 1:
            return [self._run_serial(t) for t in tasks]
        results: list = [None] * len(tasks)
        self._workers: list[_Worker] = []
        self._next_id = 0
        while len(self._workers) < min(self.jobs, len(tasks)) \
                and (worker := self._spawn_worker()) is not None:
            self._workers.append(worker)
        pending = deque(enumerate(tasks))
        sweep_t0 = time.perf_counter()
        try:
            while self._workers and (
                    pending or any(w.busy for w in self._workers)):
                # hand a task to every idle worker; one that died idle
                # is replaced and the task goes to its replacement
                for worker in [w for w in self._workers if not w.busy]:
                    if not pending:
                        break
                    index, task = pending.popleft()
                    if not self._assign(worker, index, task,
                                        time.perf_counter() - sweep_t0):
                        pending.appendleft((index, task))
                        self._replace(worker)
                busy = {w.conn: w for w in self._workers if w.busy}
                if busy:
                    for conn in wait(list(busy), self.poll_interval_s):
                        self._receive(busy[conn], results)
                if self.health is not None:
                    self.health.heartbeat(pending=len(pending),
                                          workers=len(self._workers))
                for worker in [w for w in self._workers if w.busy]:
                    self._enforce_deadline(worker, results)
        finally:
            for worker in self._workers:
                worker.conn.close()  # EOF: the worker returns
            for worker in self._workers:
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():
                    worker.process.terminate()
            self._workers = []
        if pending:
            # no worker could be started: run the remainder serially
            self.degraded = True
            for index, task in pending:
                results[index] = self._run_serial(task)
        return results


def run_sweep(
    tasks: list[Task],
    jobs: int = 1,
    progress: Optional[Callable[[TaskResult], None]] = None,
) -> list[TaskResult]:
    """Convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(jobs=jobs, progress=progress).run(tasks)
