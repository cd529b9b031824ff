"""Structured observability for SDE runs.

The paper's evaluation (Figures 9-12) lives on knowing *where* state
duplication and solver time go.  This package makes every run emit that
information as data rather than prose, in two layers:

- :mod:`repro.obs.events` — a low-overhead structured **event trace**
  (state forks, packet sends/deliveries, mapper copies, solver queries,
  worker lifecycle) serialized as JSONL;
- :mod:`repro.obs.metrics` — a **metrics registry** (counters, gauges,
  histograms, and the execute / map / solve / merge phase timers) with
  deterministic snapshots, the JSON contract that benchmarks and CI
  trend.

:mod:`repro.obs.tracetool` turns traces back into summaries and diffs two
traces by canonical event multiset — the check behind the guarantee that a
``--workers N`` run is semantically identical to the sequential run.
"""

from .events import (
    EVENT_SCHEMA,
    META_EVENT_PREFIXES,
    VOLATILE_FIELDS,
    TraceEmitter,
    load_trace,
)
from .fileio import atomic_write_bytes, atomic_write_text
from .metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    report_snapshot,
    save_metrics,
    validate_metrics,
)
from .tracetool import (
    TraceDiff,
    canonical_multiset,
    diff_traces,
    summarize_trace,
    validate_trace,
)

__all__ = [
    "EVENT_SCHEMA",
    "META_EVENT_PREFIXES",
    "VOLATILE_FIELDS",
    "TraceEmitter",
    "load_trace",
    "atomic_write_bytes",
    "atomic_write_text",
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "report_snapshot",
    "save_metrics",
    "validate_metrics",
    "TraceDiff",
    "canonical_multiset",
    "diff_traces",
    "summarize_trace",
    "validate_trace",
]
