"""Unit tests for the parallel sweep runner (repro.bench.sweep).

The self-test point kinds (``echo``, ``sleep``, ``fail``) exercise the
runner's machinery -- ordering, seeding, failure capture, timeouts,
parallelism and serial degradation -- without paying for simulations.
The pool tests at the end kill workers (and a parent) with SIGKILL; a
test whose sweep could hang the parent runs it in a child process in
its own session, under a guard that kills the whole process group.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.bench.sweep import (
    SweepRunner,
    Task,
    make_tasks,
    run_sweep,
    task_seed,
)


def _echo_tasks(n, timeout_s=None):
    return make_tasks(
        [(f"point-{i}", {"kind": "echo", "value": i}) for i in range(n)],
        timeout_s=timeout_s,
    )


# -- seeding ------------------------------------------------------------------


def test_task_seed_is_deterministic():
    assert task_seed(0, "a") == task_seed(0, "a")
    assert task_seed(0, "a") != task_seed(0, "b")
    assert task_seed(0, "a") != task_seed(1, "a")
    assert 0 <= task_seed(123456, "anything") < 2**31


def test_make_tasks_seeds_by_name():
    tasks = _echo_tasks(3)
    assert [t.name for t in tasks] == ["point-0", "point-1", "point-2"]
    assert len({t.seed for t in tasks}) == 3
    assert tasks[0].seed == task_seed(0, "point-0")


# -- serial execution ---------------------------------------------------------


def test_serial_run_returns_results_in_task_order():
    results = run_sweep(_echo_tasks(5), jobs=1)
    assert [r.name for r in results] == [f"point-{i}" for i in range(5)]
    assert all(r.ok for r in results)
    assert [r.value["value"] for r in results] == list(range(5))
    # the executor received each task's own seed
    assert [r.value["seed"] for r in results] == [r.seed for r in results]


def test_serial_failure_is_captured_not_raised():
    tasks = make_tasks([
        ("good", {"kind": "echo", "value": 1}),
        ("bad", {"kind": "fail", "message": "boom-xyz"}),
        ("after", {"kind": "echo", "value": 2}),
    ])
    results = run_sweep(tasks, jobs=1)
    assert [r.ok for r in results] == [True, False, True]
    assert "boom-xyz" in results[1].error
    assert results[1].value is None


def test_unknown_kind_is_a_task_error():
    results = run_sweep(make_tasks([("x", {"kind": "nope"})]), jobs=1)
    assert not results[0].ok
    assert "unknown point kind" in results[0].error


def test_progress_callback_sees_every_result():
    seen = []
    run_sweep(_echo_tasks(4), jobs=1, progress=lambda r: seen.append(r.name))
    assert sorted(seen) == [f"point-{i}" for i in range(4)]


# -- parallel execution -------------------------------------------------------


def test_parallel_results_match_serial():
    tasks = _echo_tasks(8)
    serial = run_sweep(tasks, jobs=1)
    parallel = run_sweep(tasks, jobs=3)
    assert [r.name for r in parallel] == [r.name for r in serial]
    assert [r.value for r in parallel] == [r.value for r in serial]


def test_parallel_failure_is_captured():
    tasks = make_tasks([
        ("good", {"kind": "echo", "value": 1}),
        ("bad", {"kind": "fail", "message": "boom-par"}),
        ("after", {"kind": "echo", "value": 2}),
    ])
    results = run_sweep(tasks, jobs=2)
    assert [r.ok for r in results] == [True, False, True]
    assert "boom-par" in results[1].error


def test_parallel_sleeps_overlap():
    # four half-second sleeps: the pool must overlap them even on one
    # CPU (the work is not CPU-bound), proving tasks really run
    # concurrently; allow generous margin for worker start-up
    tasks = make_tasks(
        [(f"s{i}", {"kind": "sleep", "seconds": 0.5}) for i in range(4)]
    )
    t0 = time.perf_counter()
    results = run_sweep(tasks, jobs=4)
    elapsed = time.perf_counter() - t0
    assert all(r.ok for r in results)
    assert elapsed < 1.8, f"4x0.5s sleeps took {elapsed:.2f}s at jobs=4"


def test_timeout_kills_runaway_task_and_sweep_continues():
    tasks = [
        Task(name="fast", spec={"kind": "echo", "value": 1}, seed=1,
             timeout_s=30.0),
        Task(name="hang", spec={"kind": "sleep", "seconds": 60.0},
             seed=2, timeout_s=0.5),
        Task(name="also-fast", spec={"kind": "echo", "value": 2},
             seed=3, timeout_s=30.0),
    ]
    t0 = time.perf_counter()
    results = run_sweep(tasks, jobs=2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    by_name = {r.name: r for r in results}
    assert by_name["fast"].ok and by_name["also-fast"].ok
    hang = by_name["hang"]
    assert not hang.ok and hang.timed_out
    assert "timed out" in hang.error


def test_single_task_runs_serially():
    runner = SweepRunner(jobs=4)
    results = runner.run(_echo_tasks(1))
    assert results[0].ok and not runner.degraded


# -- degradation --------------------------------------------------------------


def test_degrades_to_serial_when_workers_cannot_spawn(monkeypatch):
    import multiprocessing as mp

    real_context = mp.get_context()

    class NoSpawnContext:
        def Pipe(self, *a, **k):
            return real_context.Pipe(*a, **k)

        def Process(self, *a, **k):
            raise OSError("no processes in this sandbox")

    monkeypatch.setattr(
        "repro.bench.sweep.mp.get_context",
        lambda *a, **k: NoSpawnContext(),
    )
    runner = SweepRunner(jobs=4)
    results = runner.run(_echo_tasks(4))
    assert runner.degraded
    assert [r.value["value"] for r in results] == [0, 1, 2, 3]


def test_to_point_shapes_for_schema():
    from repro.bench.schema import validate_bench, make_doc

    results = run_sweep(make_tasks([
        ("ok-point", {"kind": "echo", "value": 9}),
        ("bad-point", {"kind": "fail"}),
    ]), jobs=1)
    doc = make_doc(
        target="selftest", title="sweep self-test", scale="smoke",
        config={}, points=[r.to_point() for r in results],
        derived={}, counters={}, wall_clock_s=0.0, jobs=1,
    )
    assert validate_bench(doc) == []


def test_runner_rejects_nonpositive_jobs():
    assert SweepRunner(jobs=0).jobs == 1
    assert SweepRunner(jobs=-3).jobs == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_empty_task_list(jobs):
    assert run_sweep([], jobs=jobs) == []


# -- the pool under SIGKILL --------------------------------------------------


def _killing_execute(spec, seed):
    """``_execute`` in the forked workers: ``die`` SIGKILLs the worker
    mid-task, anything else echoes."""
    if spec["kind"] == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": spec.get("value"), "seed": seed}


def _wait_dead(pid, within_s=5.0):
    """True once ``pid`` is gone or a zombie (state ``Z``)."""
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as f:
                # the state follows the parenthesised command name
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except (FileNotFoundError, ProcessLookupError):
            return True
        time.sleep(0.02)
    return False


def test_a_worker_killed_mid_task_reports_that_task_died(monkeypatch):
    from repro.obs import PoolHealth

    monkeypatch.setattr("repro.bench.sweep._execute", _killing_execute)
    tasks = make_tasks([
        ("a", {"kind": "echo", "value": 1}),
        ("dies", {"kind": "die"}),
        ("c", {"kind": "echo", "value": 3}),
        ("d", {"kind": "echo", "value": 4}),
    ], timeout_s=30.0)
    health = PoolHealth()
    results = SweepRunner(jobs=2, health=health).run(tasks)
    assert [r.name for r in results] == ["a", "dies", "c", "d"]
    assert [r.ok for r in results] == [True, False, True, True]
    assert results[1].error == \
        f"worker died without a result (exitcode {-signal.SIGKILL})"
    assert [r.value["value"] for r in results if r.ok] == [1, 3, 4]
    assert health.counts["deaths"] == 1 and health.counts["respawns"] == 1


def test_a_worker_killed_while_idle_costs_no_task(monkeypatch):
    # the worker that just finished is killed before its next task is
    # sent: the send fails, the task goes to its replacement, and no
    # task is reported as died
    from repro.obs import PoolHealth

    monkeypatch.setattr("repro.bench.sweep._execute", _killing_execute)
    killed = []

    def kill_first_worker(result):
        if not killed:
            killed.append(result.span["pid"])
            os.kill(result.span["pid"], signal.SIGKILL)
            assert _wait_dead(result.span["pid"])

    health = PoolHealth()
    results = SweepRunner(jobs=2, progress=kill_first_worker,
                          health=health).run(_echo_tasks(6, timeout_s=30.0))
    assert killed
    assert [r.ok for r in results] == [True] * 6, \
        [r.error for r in results if not r.ok]
    assert [r.value["value"] for r in results] == list(range(6))
    assert health.counts["failures"] == 0 and health.counts["deaths"] == 0
    assert health.counts["respawns"] == 1


_SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _killpg(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _child_sweep(script, guard_s=30.0):
    """Start ``script`` in its own session; after ``guard_s`` its whole
    process group (the sweep's parent and its workers) is killed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    guard = threading.Timer(guard_s, _killpg, (proc.pid,))
    guard.start()
    return proc, guard


#: the mid-reply kill: ``big`` dies while its 4 MB reply is half written,
#: and the parent is asleep in the progress callback of ``quick``
_MID_REPLY_KILL = """
import json, os, signal, threading, time
import repro.bench.sweep as sweep

def execute(spec, seed):
    if spec["kind"] == "big":
        time.sleep(0.1)
        threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGKILL)).start()
        return {"blob": "x" * (4 << 20)}
    return {"value": spec["value"]}

def progress(result):
    if result.name == "quick":
        time.sleep(1.0)

sweep._execute = execute
tasks = [sweep.Task(name, spec, timeout_s=10.0) for name, spec in (
    ("quick", {"kind": "echo", "value": 1}),
    ("big", {"kind": "big"}),
    ("after", {"kind": "echo", "value": 2}))]
results = sweep.SweepRunner(jobs=2, progress=progress).run(tasks)
print(json.dumps([[r.name, r.ok, r.error] for r in results]))
"""


def test_a_worker_killed_mid_reply_does_not_hang_the_sweep():
    t0 = time.perf_counter()
    proc, guard = _child_sweep(_MID_REPLY_KILL)
    try:
        out, err = proc.communicate()
    finally:
        guard.cancel()
        _killpg(proc.pid)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"the sweep took {elapsed:.1f} s: {err}"
    assert proc.returncode == 0, err
    (quick, big, after) = json.loads(out)
    assert quick[:2] == ["quick", True] and after[:2] == ["after", True]
    assert big[:2] == ["big", False]
    assert big[2].startswith("worker died without a result"), big


_PARENT_KILLED = """
import json, multiprocessing, os, signal
import repro.bench.sweep as sweep

def progress(result):
    pids = [p.pid for p in multiprocessing.active_children()]
    print(json.dumps(pids), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)

tasks = sweep.make_tasks(
    [(f"p{i}", {"kind": "echo", "value": i}) for i in range(4)])
sweep.SweepRunner(jobs=2, progress=progress).run(tasks)
"""


def test_workers_exit_with_a_killed_parent():
    proc, guard = _child_sweep(_PARENT_KILLED)
    try:
        pids = json.loads(proc.stdout.readline())
        assert proc.wait() == -signal.SIGKILL
        assert len(pids) == 2
        alive = [pid for pid in pids if not _wait_dead(pid)]
        assert not alive, f"workers {alive} outlived their parent"
    finally:
        guard.cancel()
        _killpg(proc.pid)
        proc.stdout.close()
        proc.stderr.close()
