"""Worker-pool health: counters, heartbeats, stall detection."""

import io
import json

from repro.obs import PoolHealth, RunLedger, set_ledger


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, s):
        self.now += s


def make_health(**kwargs):
    clock = FakeClock()
    health = PoolHealth(clock=clock, **kwargs)
    return health, clock


def test_counters_track_the_task_lifecycle():
    health, clock = make_health()
    health.task_assigned(0, "a")
    health.task_assigned(1, "b")
    clock.advance(1.0)
    health.task_finished(0, ok=True)
    health.task_finished(1, ok=False)
    assert health.summary() == {
        "tasks": 2, "failures": 1, "timeouts": 0, "respawns": 0,
        "deaths": 0, "stalls": 0,
    }


def test_timeout_is_counted_once_not_doubled():
    """task_timed_out counts the kill; the task_finished that follows
    must not count it again."""
    health, _ = make_health()
    health.task_assigned(0, "slow")
    health.task_timed_out(0, "slow", timeout_s=5.0)
    health.task_finished(0, ok=False)
    assert health.summary()["timeouts"] == 1


def test_heartbeat_is_throttled_and_snapshots_pool_state():
    stream = io.StringIO()
    ledger = RunLedger(stream, verb="test")
    previous = set_ledger(ledger)
    try:
        health, clock = make_health(heartbeat_s=1.0)
        health.task_assigned(0, "a")
        assert health.heartbeat(pending=3, workers=2)
        clock.advance(0.5)
        assert not health.heartbeat(pending=2, workers=2)
        clock.advance(0.6)
        assert health.heartbeat(pending=1, workers=2)
    finally:
        set_ledger(previous)
    ledger.close()
    ticks = [record["wall"] for record in map(
        json.loads, stream.getvalue().splitlines())
        if record.get("name") == "pool.heartbeat"]
    assert [(t["busy"], t["pending"], t["workers"], t["tasks_done"])
            for t in ticks] == [(1, 3, 2, 0), (1, 1, 2, 0)]


def test_stall_emits_one_ledger_event_per_task():
    stream = io.StringIO()
    ledger = RunLedger(stream, verb="test")
    previous = set_ledger(ledger)
    try:
        health, clock = make_health(stall_after_s=30.0)
        health.task_assigned(0, "slow")
        clock.advance(31.0)
        health.heartbeat(pending=0, workers=1, force=True)
        clock.advance(31.0)  # still stalled: no second warning
        health.heartbeat(pending=0, workers=1, force=True)
    finally:
        set_ledger(previous)
    ledger.close()
    stalls = [json.loads(line)
              for line in stream.getvalue().splitlines()
              if '"pool.stall"' in line]
    assert len(stalls) == 1
    assert stalls[0]["attrs"]["task"] == "slow"
    assert stalls[0]["wall"]["busy_s"] >= 30.0
    assert health.summary()["stalls"] == 1


def test_death_and_respawn_hooks_count_and_ledger():
    stream = io.StringIO()
    ledger = RunLedger(stream, verb="test")
    previous = set_ledger(ledger)
    try:
        health, _ = make_health()
        health.task_assigned(0, "doomed")
        health.worker_died(0, "doomed", exitcode=-9)
        health.worker_respawned(2)
    finally:
        set_ledger(previous)
    ledger.close()
    summary = health.summary()
    assert summary["deaths"] == 1
    assert summary["respawns"] == 1
    names = [json.loads(line).get("name")
             for line in stream.getvalue().splitlines()]
    assert "pool.worker_death" in names
    assert "pool.respawn" in names


def test_health_works_without_any_ledger():
    health, clock = make_health()
    health.task_assigned(0, "a")
    clock.advance(40.0)
    health.heartbeat(pending=0, workers=1, force=True)  # stall: no-op event
    health.worker_died(0, "a")
    assert health.summary()["stalls"] == 1
