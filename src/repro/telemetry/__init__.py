"""Unified telemetry: span tracing, metrics, and the budget dashboard.

One coherent, machine-readable view of where cycles, bytes, and budget
bits go -- the observability substrate behind the ``repro-dlr trace``
and ``repro-dlr metrics`` CLI subcommands and the ``--trace`` flag of
``supervise``.  Three pieces:

* :mod:`repro.telemetry.tracer` -- a zero-dependency span tracer with
  context-manager nesting, monotonic clocks, deterministic ids, and
  JSONL export (plus :func:`validate_trace` for the schema);
* :mod:`repro.telemetry.metrics` -- a process-local
  :class:`MetricsRegistry` of counters, gauges, and fixed-boundary
  histograms; the protocol engine and the leakage oracle publish here;
* :mod:`repro.telemetry.dashboard` -- the leakage-budget dashboard and
  trace digests (pure presentation over oracle/registry numbers).

Both the tracer and the registry are **off by default**: the installed
tracer is the shared no-op :data:`NULL_TRACER` and the active registry
is ``None``, so instrumentation points cost one global read when
telemetry is disabled.  Enable either scope-wise::

    from repro import telemetry

    with telemetry.tracing() as tracer, telemetry.metering() as registry:
        scheme.run_period(p1, p2, channel, ciphertext)
    tracer.export_jsonl("trace.jsonl")
    print(registry.snapshot_json())

See ``docs/observability.md`` for the full API tour and JSONL schema.
"""

from repro.telemetry.dashboard import (
    budget_dashboard,
    hottest_spans,
    render_budget_dashboard,
    render_period_metrics,
    render_trace_analysis,
    render_trace_report,
    span_summary,
    trace_analysis,
)
from repro.telemetry.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    install_registry,
    label_text,
    metering,
)
from repro.telemetry.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.telemetry.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Span,
    SpanContext,
    Tracer,
    active_tracer,
    install_tracer,
    merge_trace_files,
    merge_traces,
    new_trace_id,
    tracing,
    traced,
    uninstall_tracer,
    validate_trace,
    validate_trace_file,
)

__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "SpanContext",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "active_registry",
    "active_tracer",
    "budget_dashboard",
    "hottest_spans",
    "install_registry",
    "install_tracer",
    "label_text",
    "merge_trace_files",
    "merge_traces",
    "metering",
    "new_trace_id",
    "render_budget_dashboard",
    "render_period_metrics",
    "render_prometheus",
    "render_trace_analysis",
    "render_trace_report",
    "span_summary",
    "trace_analysis",
    "traced",
    "tracing",
    "uninstall_tracer",
    "validate_trace",
    "validate_trace_file",
]
