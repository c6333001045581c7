"""FIFO-occupancy resources used to model contention.

Memory modules, switch ports, and the per-Cpage fault-handler lock are all
modelled as :class:`FifoResource`: a single server that serves requests in
arrival order.  Because the engine pops events in timestamp order, a simple
``busy_until`` clock per resource gives exact FIFO single-server queueing
without needing the requester to block: a request arriving at time ``t``
begins service at ``max(t, busy_until)`` and the requester's completion time
is returned synchronously.

This "reserve into the future" style is what lets batched memory accesses be
costed in a single event while still serializing at shared hardware, which
is the contention effect the PLATINUM paper cares about (Sections 1 and 7).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(eq=False)
class FifoResource:
    """A single-server FIFO resource with occupancy accounting.

    Attributes
    ----------
    name:
        Label used in instrumentation reports.
    busy_until:
        Absolute simulated time (ns) at which the server next becomes free.
    busy_time:
        Total time (ns) the server has spent occupied.
    wait_time:
        Total time (ns) requesters have spent queued behind earlier work.
    requests:
        Number of occupancy requests served.
    """

    name: str
    busy_until: int = 0
    busy_time: int = 0
    wait_time: int = 0
    requests: int = 0

    def occupy(self, now: int, duration: int) -> tuple[int, int]:
        """Reserve the resource for ``duration`` ns starting no earlier than
        ``now``.

        Returns ``(start, end)``: the service interval.  The caller should
        treat ``end`` (plus any transit latency) as its completion time.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        start = max(now, self.busy_until)
        end = start + duration
        self.busy_until = end
        self.busy_time += duration
        self.wait_time += start - now
        self.requests += 1
        return start, end

    def utilization(self, now: int) -> float:
        """Fraction of time busy since t=0 (1.0 if now == 0)."""
        if now <= 0:
            return 1.0 if self.busy_time > 0 else 0.0
        return min(1.0, self.busy_time / now)
