"""Tests for ports: global message queues."""

import numpy as np
import pytest

from repro import make_kernel
from repro.runtime import (
    Compute,
    GetTime,
    Program,
    RecvPort,
    SendPort,
    run_program,
)


@pytest.fixture
def kernel():
    return make_kernel(n_processors=4, defrost_enabled=False)


def test_create_and_lookup(kernel):
    port = kernel.ports.create_port(home_module=2, label="p")
    assert kernel.ports.lookup(port.pid) is port
    with pytest.raises(KeyError):
        kernel.ports.lookup(999)


def test_default_home_round_robin(kernel):
    ports = [kernel.ports.create_port() for _ in range(5)]
    assert [p.home_module for p in ports] == [0, 1, 2, 3, 0]


def test_send_enqueues_copy(kernel):
    port = kernel.ports.create_port(home_module=0)
    data = np.array([1, 2, 3], dtype=np.int64)
    end = port.send(data, sender_thread=0, sender_node=1, now=0)
    assert end > 0
    data[0] = 99  # sender's buffer mutation must not affect the message
    msg, _ = port.try_receive(receiver_node=0, now=end)
    assert list(msg.data) == [1, 2, 3]


def test_receive_order_fifo(kernel):
    port = kernel.ports.create_port(home_module=0)
    for v in (10, 20, 30):
        port.send(np.array([v]), 0, 0, now=0)
    got = [int(port.try_receive(0, 0)[0].data[0]) for _ in range(3)]
    assert got == [10, 20, 30]


def test_empty_receive_returns_none(kernel):
    port = kernel.ports.create_port()
    assert port.try_receive(0, now=0) is None


def test_send_cost_includes_fixed_and_transfer(kernel):
    p = kernel.params
    port = kernel.ports.create_port(home_module=2)
    n = 100
    end = port.send(np.zeros(n, dtype=np.int64), 0, 0, now=0)
    expected = p.port_send_fixed + p.t_block_word * n
    assert end == pytest.approx(expected, rel=0.01)


def test_message_traffic_contends_with_memory(kernel):
    port = kernel.ports.create_port(home_module=2)
    kernel.machine.modules[2].bus.occupy(0, 1_000_000)
    end = port.send(np.zeros(100, dtype=np.int64), 0, 0, now=0)
    assert end > 1_000_000  # queued behind the busy destination bus


class PingPong(Program):
    """Two threads exchanging messages through ports."""

    name = "pingpong"

    def __init__(self, rounds=5):
        self.rounds = rounds

    def setup(self, api):
        self.ping = api.port(home_module=0, label="ping")
        self.pong = api.port(home_module=1, label="pong")
        api.spawn(0, self.ping_body, name="ping")
        api.spawn(1, self.pong_body, name="pong")

    def ping_body(self, env):
        total = 0
        for i in range(self.rounds):
            yield SendPort(self.pong, np.array([i], dtype=np.int64))
            reply = yield RecvPort(self.ping)
            total += int(reply[0])
        return total

    def pong_body(self, env):
        for _ in range(self.rounds):
            msg = yield RecvPort(self.pong)
            yield SendPort(
                self.ping, np.array([int(msg[0]) * 2], dtype=np.int64)
            )
        return "done"

    def verify(self, results):
        expected = sum(i * 2 for i in range(self.rounds))
        assert results[0] == expected
        assert results[1] == "done"


def test_blocking_receive_end_to_end(kernel):
    result = run_program(kernel, PingPong(rounds=5))
    assert result.sim_time_ns > 0


class ManyToOne(Program):
    """Multiple senders into one port; one receiver drains them all."""

    name = "many-to-one"

    def setup(self, api):
        self.port = api.port(home_module=0, label="sink")
        self.n = 3
        api.spawn(0, self.recv_body, name="recv")
        for tid in range(self.n):
            api.spawn(1 + tid, self.send_body, name=f"send{tid}")

    def recv_body(self, env):
        got = []
        for _ in range(self.n):
            msg = yield RecvPort(self.port)
            got.append(int(msg[0]))
        return sorted(got)

    def send_body(self, env):
        yield SendPort(self.port, np.array([env.tid], dtype=np.int64))
        return env.tid

    def verify(self, results):
        assert results[0] == [1, 2, 3]


def test_many_senders_one_receiver():
    kernel = make_kernel(n_processors=4)
    run_program(kernel, ManyToOne())


def test_port_home_module_round_trip_costs_symmetry():
    """A message landing on the receiver's own module costs less to
    receive than one homed remotely."""
    kernel = make_kernel(n_processors=4, defrost_enabled=False)
    near = kernel.ports.create_port(home_module=0)
    far = kernel.ports.create_port(home_module=3)
    payload = np.arange(200, dtype=np.int64)
    near_end = near.send(payload, 0, 0, now=0)
    far_end = far.send(payload, 0, 0, now=0)
    _, near_recv = near.try_receive(0, near_end)
    _, far_recv = far.try_receive(0, far_end)
    assert near_recv - near_end <= far_recv - far_end


class PenalizedPingPong(Program):
    """Ping-pong whose ponger is charged an interrupt penalty right
    before each receive, and whose every receive blocks first: the
    pinger thinks before each send.  Every receive logs the time it
    completed."""

    name = "penalized-pingpong"
    rounds = 4
    penalty = 5000

    def setup(self, api):
        self.kernel = api.kernel
        self.ping = api.port(home_module=0, label="ping")
        self.pong = api.port(home_module=1, label="pong")
        self.times = []
        api.spawn(0, self.ping_body, name="ping")
        api.spawn(1, self.pong_body, name="pong")

    def ping_body(self, env):
        for i in range(self.rounds):
            yield Compute(3000)
            yield SendPort(self.pong, np.array([i], dtype=np.int64))
            yield RecvPort(self.ping)
            self.times.append(("ping", i, (yield GetTime())))

    def pong_body(self, env):
        for i in range(self.rounds):
            self.kernel.machine.interrupts.charge(1, self.penalty)
            msg = yield RecvPort(self.pong)
            self.times.append(("pong", i, (yield GetTime())))
            yield Compute(100)
            yield SendPort(
                self.ping, np.array([int(msg[0]) * 2], dtype=np.int64))


#: receive completion times of ``PenalizedPingPong``.  Each pong
#: receive blocks after ``_begin`` collected its 5 us penalty, and the
#: retry does not charge it: the RecvPort lost-penalty defect, pinned
#: as it stands until it is fixed on its own, with the numbers it moves.
PINGPONG_TIMES = [
    ("pong", 0, 54897), ("ping", 0, 106894),
    ("pong", 1, 161791), ("ping", 1, 213788),
    ("pong", 2, 268685), ("ping", 2, 320682),
    ("pong", 3, 375579), ("ping", 3, 427576),
]
#: engine events of that run
EVENTS = 34


@pytest.mark.parametrize("fast_path", [True, False])
def test_blocked_receive_retries_complete_at_the_pinned_times(
        monkeypatch, fast_path):
    import repro.machine.machine as machine_mod
    from repro.sim import Engine

    monkeypatch.setattr(machine_mod, "Engine",
                        lambda: Engine(fast_path=fast_path))

    def run(penalty):
        monkeypatch.setattr(PenalizedPingPong, "penalty", penalty)
        kernel = make_kernel(n_processors=4, defrost_enabled=False)
        program = PenalizedPingPong()
        run_program(kernel, program)
        return program.times, kernel.engine.events_executed

    assert run(5000) == (PINGPONG_TIMES, EVENTS)
    # the defect: the penalty taken before blocking is never paid
    assert run(0) == (PINGPONG_TIMES, EVENTS)
