"""Unified observability: structured tracing, metrics, and profiling.

``repro.obs`` observes a run from the *outside*, exactly like
:mod:`repro.invariants`: it chains the engine's ``trace_pre``/``trace_post``
hooks, the churn/recovery observer callbacks, and per-instance wraps of a
handful of overlay operations.  No protocol or kernel code is modified and
nothing is installed unless a channel is explicitly enabled, so the event
hot loop keeps its ``trace_pre is None`` fast path when observability is
off.

Three independent channels (see ``docs/observability.md``):

* **trace** — typed JSONL records (:mod:`repro.obs.trace`,
  :mod:`repro.obs.schema`).  Records carry only virtual time and are
  byte-identical for a given seed at any ``--jobs`` value.
* **metrics** — per-subsystem counters/gauges/histograms
  (:mod:`repro.obs.metrics`), exported into runner/campaign JSON reports.
* **profile** — wall-clock attribution per event type and per pool stage
  (:mod:`repro.obs.profile`).  Wall times never enter the trace channel.
"""

from .attach import ObsAttachment
from .capture import (
    ObsUnit,
    current_capture,
    emit_unit,
    job_capture,
    obs_fingerprint,
)
from .metrics import (
    NULL_INSTRUMENT,
    SUBSYSTEMS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_units,
    render_metrics_section,
)
from .profile import (
    Profiler,
    drain_stages,
    record_stage,
    render_profile_section,
)
from .schema import (
    RECORD_TYPES,
    TRACE_SCHEMA_VERSION,
    TraceSchemaError,
    validate_line,
    validate_record,
    validate_trace_lines,
)
from .trace import TraceWriter

__all__ = [
    "NULL_INSTRUMENT",
    "RECORD_TYPES",
    "SUBSYSTEMS",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsAttachment",
    "ObsUnit",
    "Profiler",
    "TraceSchemaError",
    "TraceWriter",
    "aggregate_units",
    "current_capture",
    "drain_stages",
    "emit_unit",
    "job_capture",
    "obs_fingerprint",
    "record_stage",
    "render_metrics_section",
    "render_profile_section",
    "validate_line",
    "validate_record",
    "validate_trace_lines",
]
