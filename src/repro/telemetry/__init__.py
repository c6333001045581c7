"""Unified telemetry: metrics registry, streaming trace export, and
sim-time sampling (the paper's section 9 instrumentation, made
continuous).  See docs/OBSERVABILITY.md for the metrics catalog and the
export formats."""

from .export import (
    ChromeTraceSink,
    JsonlTraceSink,
    TraceSink,
    lint_prometheus,
    records_to_prometheus,
    to_prometheus,
)
from .metrics import (
    DEFAULT_NS_BUCKETS,
    Metric,
    MetricError,
    MetricsRegistry,
    read_metric_records,
)
from .sampler import SimTimeSampler

__all__ = [
    "ChromeTraceSink",
    "DEFAULT_NS_BUCKETS",
    "JsonlTraceSink",
    "Metric",
    "MetricError",
    "MetricsRegistry",
    "SimTimeSampler",
    "TraceSink",
    "lint_prometheus",
    "read_metric_records",
    "records_to_prometheus",
    "to_prometheus",
]
