"""PLATINUM's coherent memory system -- the paper's contribution.

Cpages with a directory-based selective-invalidation protocol extended
with remote mappings, per-address-space Cmaps with private per-processor
Pmaps, the NUMA shootdown mechanism, the defrost daemon, and the
kernel's post-mortem instrumentation.  The policies the fault handler
and the defrost daemon consult are ``repro.policy``'s.
"""

from .cmap import Cmap, CmapEntry, CmapMessage, Directive
from .coherent_memory import CoherentMemorySystem
from .cpage import (
    CoherencyError,
    Cpage,
    CpageState,
    CpageStats,
    CpageTable,
)
from .defrost import DefrostDaemon
from .fault import CoherentFaultHandler, ProtectionError
from .instrumentation import CpageReportRow, MemoryReport, build_report
from .protocol import TRANSITIONS, Transition, format_table, lookup
from .shootdown import ShootdownMechanism
from .trace import EventKind, ProtocolTracer, TraceEvent

__all__ = [
    "Cmap",
    "CmapEntry",
    "CmapMessage",
    "CoherencyError",
    "CoherentFaultHandler",
    "CoherentMemorySystem",
    "Cpage",
    "CpageReportRow",
    "CpageState",
    "CpageStats",
    "CpageTable",
    "DefrostDaemon",
    "EventKind",
    "Directive",
    "MemoryReport",
    "ProtectionError",
    "ProtocolTracer",
    "ShootdownMechanism",
    "TRANSITIONS",
    "TraceEvent",
    "Transition",
    "build_report",
    "format_table",
    "lookup",
]
