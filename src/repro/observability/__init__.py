"""Observability: tracing, metrics, forensics, audit log and health.

The substrate every perf/robustness PR builds on: the scheduler, the
monitor, the transports, the variant hosts and the serving surface all
report through here instead of ad-hoc counters.

- :mod:`repro.observability.tracing` -- :class:`Tracer` producing
  ``infer -> batch -> stage -> variant / checkpoint`` span trees with
  pluggable exporters (in-memory ring buffer, JSONL file sink).
- :mod:`repro.observability.metrics` -- :class:`MetricsRegistry` of
  named counters/gauges/histograms with Prometheus text and JSON
  exposition and bucket-based quantile estimation.
- :mod:`repro.observability.recorder` -- :class:`FlightRecorder`, the
  tamper-evident (hash-chained) audit log of security-relevant events
  with JSONL export and verified replay.
- :mod:`repro.observability.forensics` -- :class:`IncidentReport` /
  :class:`IncidentStore`: per-detection forensics (tensor digests,
  elementwise mismatch analysis, culprit attribution, trace
  correlation).
- :mod:`repro.observability.health` -- :class:`HealthMonitor`
  evaluating rolling-window SLO rules (divergence/crash/shed/timeout
  rates, latency quantiles) to an OK/WARN/CRIT verdict.
- :mod:`repro.observability.sinks` -- :class:`Sinks`, the
  tracer/metrics/recorder bundle every serving surface accepts as
  ``sinks=``.
"""

from repro.observability.forensics import (
    IncidentReport,
    IncidentStore,
    MismatchAnalysis,
    TensorSummary,
    analyze_mismatch,
    build_incident_report,
    summarize_tensor,
)
from repro.observability.health import (
    HealthMonitor,
    HealthReport,
    HealthStatus,
    QuantileRule,
    RatioRule,
    RuleResult,
    default_rules,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_global_registry,
    quantile_from_buckets,
    set_global_registry,
)
from repro.observability.recorder import (
    AuditChainError,
    AuditEvent,
    FlightRecorder,
)
from repro.observability.sinks import Sinks
from repro.observability.tracing import (
    InMemorySpanExporter,
    JsonlSpanExporter,
    NullTracer,
    Span,
    SpanExporter,
    Tracer,
    format_span_tree,
)

__all__ = [
    "AuditChainError",
    "AuditEvent",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "HealthMonitor",
    "HealthReport",
    "HealthStatus",
    "Histogram",
    "IncidentReport",
    "IncidentStore",
    "InMemorySpanExporter",
    "JsonlSpanExporter",
    "MetricsRegistry",
    "MismatchAnalysis",
    "NullTracer",
    "QuantileRule",
    "RatioRule",
    "RuleResult",
    "Sinks",
    "Span",
    "SpanExporter",
    "TensorSummary",
    "Tracer",
    "analyze_mismatch",
    "build_incident_report",
    "default_rules",
    "format_span_tree",
    "get_global_registry",
    "quantile_from_buckets",
    "set_global_registry",
    "summarize_tensor",
]
