"""Simulated BBN Butterfly Plus-class NUMA hardware.

Memory modules with real page-frame data, an interconnect with contention,
per-processor MMUs (ATC + private Pmaps), a block-transfer engine, and
interprocessor interrupts -- the substrate PLATINUM's coherent memory runs
on.  Timing defaults come from the paper's measurements (see ``params``).
"""

from .blockxfer import BlockTransferEngine
from .interrupts import InterruptController
from .machine import AccessOutcome, Machine
from .memory import Frame, MemoryModule, OutOfFramesError, WORD_DTYPE
from .mmu import ATC, MMU, TranslationResult
from .params import BUTTERFLY_PLUS, MachineParams, butterfly_plus
from .pmap import (
    InvertedPageTable,
    IptEntry,
    Pmap,
    PmapEntry,
    Rights,
)
from .topology import (
    BusTopology,
    ButterflyTopology,
    Topology,
    UniformTopology,
    make_topology,
)

__all__ = [
    "ATC",
    "AccessOutcome",
    "BUTTERFLY_PLUS",
    "BlockTransferEngine",
    "BusTopology",
    "ButterflyTopology",
    "Frame",
    "InterruptController",
    "InvertedPageTable",
    "IptEntry",
    "MMU",
    "Machine",
    "MachineParams",
    "MemoryModule",
    "OutOfFramesError",
    "Pmap",
    "PmapEntry",
    "Rights",
    "Topology",
    "TranslationResult",
    "UniformTopology",
    "WORD_DTYPE",
    "butterfly_plus",
    "make_topology",
]
