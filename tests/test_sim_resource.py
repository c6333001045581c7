"""Unit tests for FIFO-occupancy resources."""

import pytest

from repro.sim import FifoResource


def test_idle_resource_serves_immediately():
    res = FifoResource("r")
    start, end = res.occupy(100, 50)
    assert (start, end) == (100, 150)
    assert res.busy_until == 150


def test_busy_resource_queues_fifo():
    res = FifoResource("r")
    res.occupy(0, 100)
    start, end = res.occupy(10, 20)
    assert start == 100
    assert end == 120
    assert res.wait_time == 90


def test_busy_time_accumulates():
    res = FifoResource("r")
    res.occupy(0, 30)
    res.occupy(0, 20)
    assert res.busy_time == 50
    assert res.requests == 2


def test_gap_between_requests_leaves_idle_time():
    res = FifoResource("r")
    res.occupy(0, 10)
    start, _ = res.occupy(100, 10)
    assert start == 100
    assert res.wait_time == 0


def test_waiting_delay():
    res = FifoResource("r")
    res.occupy(0, 100)
    # a request arriving at 40 waits 60; one arriving at 200 not at all
    assert res.occupy(40, 1)[0] - 40 == 60
    assert res.occupy(200, 1)[0] - 200 == 0


def test_zero_duration_allowed():
    res = FifoResource("r")
    start, end = res.occupy(5, 0)
    assert start == end == 5


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        FifoResource("r").occupy(0, -1)


def test_utilization():
    res = FifoResource("r")
    res.occupy(0, 50)
    assert res.utilization(100) == pytest.approx(0.5)
    # at t=0 any accumulated busy work counts as fully utilized
    assert res.utilization(0) == 1.0
