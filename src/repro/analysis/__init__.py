"""Analytic models and measurement utilities for the evaluation."""

from .costmodel import (
    COUNTER_FIELDS,
    MigrationCostModel,
    TABLE1_GS,
    TABLE1_PUBLISHED,
    TABLE1_RHOS,
    aggregate_counters,
    crossover_validation,
    g_round_robin,
    run_counters,
)
from .report import ascii_plot, format_table
from .speedup import SpeedupCurve, SpeedupPoint, measure_speedup
from .visualize import (
    event_rate,
    page_heat,
    processor_profile,
    run_dashboard,
    sample_timeline,
)

__all__ = [
    "COUNTER_FIELDS",
    "MigrationCostModel",
    "SpeedupCurve",
    "SpeedupPoint",
    "TABLE1_GS",
    "TABLE1_PUBLISHED",
    "TABLE1_RHOS",
    "aggregate_counters",
    "ascii_plot",
    "crossover_validation",
    "run_counters",
    "event_rate",
    "format_table",
    "g_round_robin",
    "measure_speedup",
    "page_heat",
    "processor_profile",
    "run_dashboard",
    "sample_timeline",
]
