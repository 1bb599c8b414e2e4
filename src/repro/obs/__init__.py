"""Observability: tracing, metrics, and audit telemetry for the TS.

The paper's Trusted Server is an online decision pipeline — monitor →
generalize (Algorithm 1) → unlink — whose behaviour the experiments can
only inspect post-hoc through the audit trail.  This subpackage adds the
per-request telemetry a production anonymizer needs:

* :mod:`repro.obs.tracing` — nestable wall-clock spans (`Span`,
  `Tracer`) with context-manager and decorator APIs;
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms (p50/p95/p99 summaries) keyed by name+labels;
* :mod:`repro.obs.sinks` — pluggable event sinks: in-memory ring
  buffer, JSONL file writer, and a console reporter routed through the
  stdlib ``logging`` tree under ``repro.obs``;
* :mod:`repro.obs.config` — :class:`TelemetryConfig` and the
  :class:`Telemetry` facade the instrumented components receive.
  Disabled telemetry (the default) is a shared no-op singleton whose
  every operation costs a single ``enabled`` branch;
* :mod:`repro.obs.render` — fixed-width text rendering of metric
  snapshots for examples and benchmark output;
* :mod:`repro.obs.export` — Prometheus text exposition of the metrics
  registry (with OpenMetrics trace exemplars) plus the matching parser
  used by tests and the ``tools/obstop.py`` dashboard;
* :mod:`repro.obs.aggregate` — the merge behind a supervised fleet's
  one ``metrics`` scrape (counters and buckets summed, gauges kept per
  worker);
* :mod:`repro.obs.slo` — the second observability layer: a streaming
  :class:`PrivacyMonitor` consuming the engine's decision events
  and evaluating declarative :class:`SloRule` thresholds (alerting
  through the sink fan-out) over sliding windows;
* :mod:`repro.obs.bench` — benchmark regression artifacts
  (``BENCH_<exp>.json``) and the comparator behind
  ``tools/bench_gate.py``.

Everything is zero-dependency stdlib Python (plus the ``repro``
*value* layers — geometry, granularity — which the SLO estimators
need); nothing here imports the pipeline packages (``core``, ``ts``,
``attack``), so any layer can be instrumented without cycles.
Exports resolve on first use: importing :mod:`repro.obs.config` alone
loads neither the benchmark nor the aggregation modules.
"""

from repro._lazy import lazy_exports

#: Each public name and the module it comes from, imported on first use.
_EXPORTS = {
    "repro.obs.bench": (
        "BenchArtifact",
        "BenchComparison",
        "BenchDelta",
        "compare_artifacts",
        "export_bench",
        "load_bench_artifact",
    ),
    "repro.obs.config": (
        "NULL_TELEMETRY",
        "Telemetry",
        "TelemetryConfig",
        "resolve_telemetry",
    ),
    "repro.obs.aggregate": (
        "merge_exemplars",
        "merge_rule",
        "merge_samples",
    ),
    "repro.obs.export": (
        "Exemplars",
        "parse_exposition",
        "parse_prometheus",
        "quantile_from_buckets",
        "render_prometheus",
        "render_samples",
    ),
    "repro.obs.metrics": (
        "DEFAULT_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "HistogramSummary",
        "MetricsRegistry",
        "MetricsSnapshot",
    ),
    "repro.obs.activity": ("ActivitySlot",),
    "repro.obs.profile": (
        "CollapsedStack",
        "ProfileReport",
        "SamplingProfiler",
        "StageRow",
        "TraceRow",
        "render_stage_table",
        "report_from_dict",
    ),
    "repro.obs.render": (
        "render_summary",
    ),
    "repro.obs.sinks": (
        "JSONL_READ_STATS",
        "ConsoleSink",
        "JsonlReadStats",
        "JsonlSink",
        "RingBufferSink",
        "TelemetrySink",
        "read_jsonl",
        "read_jsonl_rotated",
        "rotated_paths",
    ),
    "repro.obs.slo": (
        "PrivacyMonitor",
        "SloAlert",
        "SloRule",
        "SloStatus",
        "parse_slo",
    ),
    "repro.obs.tracing": (
        "Span",
        "SpanRecord",
        "TraceContext",
        "Tracer",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
