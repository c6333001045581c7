"""Ports: globally named message queues (paper section 1.1).

A port is a message queue with any number of senders and receivers
("mailbox" semantics; the name reveals the Mach ancestry).  Messages are
variable-length word arrays.  Ports provide communication between threads
that share no memory object, and blocking synchronization.

Cost model: a send pays a fixed kernel overhead plus a block-transfer of
the message body into the port's home memory module; a receive pays a
fixed overhead plus a transfer from the home module to the receiver.  The
endpoint module buses are occupied at the block-transfer fraction, so
message traffic contends with memory traffic like everything else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..machine.machine import Machine
from ..sim.sync import SimEvent


@dataclass(eq=False)
class Message:
    """One queued message."""

    data: np.ndarray
    sender_thread: int
    sent_at: int


class Port:
    """A globally named multi-sender, multi-receiver message queue."""

    def __init__(self, machine: Machine, pid: int, home_module: int,
                 label: str = "") -> None:
        self.machine = machine
        self.pid = pid
        self.home_module = home_module
        self.label = label
        self.queue: deque[Message] = deque()
        self.arrival = SimEvent(machine.engine, f"port[{pid}].arrival")
        self.sends = 0
        self.receives = 0

    def __repr__(self) -> str:
        return (
            f"<Port {self.pid} {self.label!r} home=m{self.home_module} "
            f"queued={len(self.queue)}>"
        )

    def _transfer(self, other_module: int, n_words: int, now: int) -> int:
        """Move a message body between ``other_module`` and the port's
        home module; returns the completion time."""
        machine = self.machine
        return machine.xfer.occupy_endpoints(
            other_module, self.home_module, now,
            machine.params.t_block_word * max(1, n_words),
        )

    def send(
        self, data: np.ndarray, sender_thread: int, sender_node: int,
        now: int,
    ) -> int:
        """Enqueue a message; returns the sender's completion time (ns)."""
        t = self._transfer(
            sender_node, len(data),
            now + self.machine.params.port_send_fixed,
        )
        self.queue.append(Message(np.array(data, copy=True), sender_thread, t))
        self.sends += 1
        self.arrival.fire()
        return t

    def try_receive(
        self, receiver_node: int, now: int
    ) -> Optional[tuple[Message, int]]:
        """Dequeue a message if available.

        Returns ``(message, completion_time)`` or None if the queue is
        empty (the caller should wait on :attr:`arrival` and retry).
        """
        if not self.queue:
            return None
        message = self.queue.popleft()
        # transfer from home module to receiver: same cost structure
        end = self._transfer(
            receiver_node, len(message.data),
            now + self.machine.params.port_recv_fixed,
        )
        self.receives += 1
        return message, end


class PortNamespace:
    """The flat global name space of ports."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.ports: dict[int, Port] = {}
        self._next_pid = 0

    def create_port(
        self, home_module: Optional[int] = None, label: str = ""
    ) -> Port:
        pid = self._next_pid
        self._next_pid += 1
        if home_module is None:
            home_module = pid % self.machine.params.n_modules
        port = Port(self.machine, pid, home_module, label)
        self.ports[pid] = port
        return port

    def lookup(self, pid: int) -> Port:
        port = self.ports.get(pid)
        if port is None:
            raise KeyError(f"no port {pid}")
        return port
