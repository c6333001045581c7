"""PLATINUM's coherent memory system -- the paper's contribution.

Cpages with a directory-based selective-invalidation protocol extended
with remote mappings, per-address-space Cmaps with private per-processor
Pmaps, the NUMA shootdown mechanism, the freeze/thaw replication policy
family, the defrost daemon, and the kernel's post-mortem instrumentation.
"""

from .cmap import Cmap, CmapEntry, CmapMessage, Directive
from .coherent_memory import CoherentMemorySystem
from .competitive import (
    CompetitivePolicy,
    MigrationDaemon,
    attach_migration_daemon,
    break_even_words,
    competitive_kernel,
)
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
from ..policy.base import Action, FaultContext, ReplicationPolicy
from ..policy.fixed import (
    AceStylePolicy,
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from .protocol import TRANSITIONS, Transition, format_table, lookup
from .shootdown import ShootdownMechanism
from .trace import EventKind, ProtocolTracer, TraceEvent

__all__ = [
    "AceStylePolicy",
    "Action",
    "AlwaysReplicatePolicy",
    "Cmap",
    "CmapEntry",
    "CmapMessage",
    "CoherencyError",
    "CoherentFaultHandler",
    "CoherentMemorySystem",
    "CompetitivePolicy",
    "Cpage",
    "CpageReportRow",
    "CpageState",
    "CpageStats",
    "CpageTable",
    "DefrostDaemon",
    "EventKind",
    "Directive",
    "FaultContext",
    "MemoryReport",
    "MigrationDaemon",
    "NeverCachePolicy",
    "ProtectionError",
    "ProtocolTracer",
    "ReplicationPolicy",
    "ShootdownMechanism",
    "TRANSITIONS",
    "TimestampFreezePolicy",
    "TraceEvent",
    "Transition",
    "attach_migration_daemon",
    "break_even_words",
    "competitive_kernel",
    "build_report",
    "format_table",
    "lookup",
]
