"""Observability spine: metrics, spans, and structured diagnostics
(DESIGN.md §9)."""

from repro.obs.metrics import (
    SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    Series,
    ensure_metrics,
    validate_metrics_doc,
)

__all__ = [
    "SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "Series",
    "ensure_metrics",
    "validate_metrics_doc",
]
