"""Deterministic discrete-event simulation substrate.

Provides the event engine, FIFO-occupancy resources for contention
modelling, generator-based processes, and simulated-time synchronization
channels on which the NUMA machine model (``repro.machine``) is built.
"""

from .engine import Engine, SimulationError
from .process import Delay, Op, Process, ProcessCrashed, WaitFor
from .resource import FifoResource
from .sync import SimEvent

__all__ = [
    "Delay",
    "Engine",
    "FifoResource",
    "Op",
    "Process",
    "ProcessCrashed",
    "SimEvent",
    "SimulationError",
    "WaitFor",
]
