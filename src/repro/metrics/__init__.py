"""Aggregated, exportable telemetry for the simulated CA-GMRES stack.

* :mod:`repro.metrics.registry` — deterministic labeled metric families
  (Counter / Gauge / Histogram with fixed bucket edges);
* :mod:`repro.metrics.export` — Prometheus text exposition + stable JSON
  snapshots;
* :mod:`repro.metrics.collect` — observers that bridge runtime, solver,
  serving, and fault state into a registry;
* :mod:`repro.metrics.workload` — the quick fig14-style workload behind
  ``python -m repro metrics``;
* :mod:`repro.metrics.gate` — the benchmark perf-regression gate
  (``scripts/perf_gate.py``).
"""

from .collect import (
    observe_context,
    observe_faults,
    observe_result,
    observe_solve,
)
from .export import (
    SNAPSHOT_SCHEMA,
    deterministic_snapshot,
    snapshot,
    to_prometheus,
    write_snapshot,
)
from .registry import (
    BLOCK_LENGTH_BUCKETS,
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
    SIM_TIME_BUCKETS,
    WALL_TIME_BUCKETS,
)

__all__ = [
    "MetricsRegistry",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "SIM_TIME_BUCKETS",
    "WALL_TIME_BUCKETS",
    "BLOCK_LENGTH_BUCKETS",
    "to_prometheus",
    "snapshot",
    "deterministic_snapshot",
    "write_snapshot",
    "SNAPSHOT_SCHEMA",
    "observe_context",
    "observe_result",
    "observe_faults",
    "observe_solve",
]
