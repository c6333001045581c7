"""Fleet observability: the run ledger, pool health and the doctor.

Where ``repro.telemetry`` watches *one simulation from the inside*
(protocol metrics, trace sinks, sim-time sampling), this package watches
the *tooling fleet from the outside*:

``ledger``
    The ``repro-events/1`` span/event JSONL every CLI verb can emit
    (``repro --ledger PATH <verb>``): root span per verb, nested spans
    per pipeline stage, per-point spans from the bench worker pool with
    context propagated across the process boundary.
``health``
    Worker-pool task counts, heartbeat ticks and stall detection.
``doctor``
    Streaming anomaly detectors (false sharing, shootdown storms,
    frozen-page thrash, defrost starvation, pool wall pathologies)
    over one run's profile events, sampler rows and pool health --
    the ``repro doctor`` verb and ``repro-findings/1`` reports.

Nothing here judges wall-clock speed: ``perf/run.py --compare`` is the
one wall-clock gate, and the committed ``BENCH_smoke.json`` is the one
gate on simulated drift.  See the "Run ledger" section of
docs/OBSERVABILITY.md.
"""

from .doctor import (
    DETECTOR_ORDER,
    DOCTOR_SCHEMA,
    DoctorError,
    diagnose,
    render_findings,
    strip_wall_findings,
)
from .health import PoolHealth
from .ledger import (
    LEDGER_SCHEMA,
    NULL_SPAN,
    LedgerError,
    RunLedger,
    Span,
    event,
    follow_ledger,
    get_ledger,
    iter_spans,
    read_ledger,
    render_follow_record,
    set_ledger,
    span,
    strip_wall,
    strip_wall_ledger,
    summarize_ledger,
    tick,
    validate_ledger,
)

__all__ = [
    "DETECTOR_ORDER",
    "DOCTOR_SCHEMA",
    "DoctorError",
    "LEDGER_SCHEMA",
    "LedgerError",
    "NULL_SPAN",
    "PoolHealth",
    "RunLedger",
    "Span",
    "diagnose",
    "event",
    "follow_ledger",
    "get_ledger",
    "iter_spans",
    "read_ledger",
    "render_findings",
    "render_follow_record",
    "set_ledger",
    "span",
    "strip_wall",
    "strip_wall_findings",
    "strip_wall_ledger",
    "summarize_ledger",
    "tick",
    "validate_ledger",
]
