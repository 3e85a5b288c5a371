"""Observability: metrics registry, tracing spans, campaign telemetry.

Dependency-free instrumentation for the simulate→parse→analyze
pipeline.  Three layers, all zero-cost when disabled (the default):

* :mod:`repro.obs.metrics` — labeled ``Counter`` / ``Gauge`` /
  ``Histogram`` / ``Timer`` in a :class:`MetricsRegistry` with
  snapshot/reset semantics and JSON + Prometheus-text exporters.
* :mod:`repro.obs.tracing` — hierarchical spans
  (``campaign`` → ``run`` → ``simulate``/``parse``/``analyze``) on a
  monotonic clock, collected in memory and exported as JSONL.
* :mod:`repro.obs.events` — a structured :class:`EventLog` of campaign
  decision points (claim/steal/expire/retry/quarantine/breaker) with
  severity, dual timestamps, and correlation ids, mirrored to stderr
  and to per-worker telemetry spools via sinks.

:mod:`repro.obs.progress` is one more sink: the live status line
(rate, ETA, completed/quarantined/retried tallies) folded from the
run-outcome events the campaign coordinator emits.

:mod:`repro.obs.context` binds them: hot paths read the active
:class:`Instrumentation` bundle via :func:`get_instrumentation`;
everything defaults to shared no-op singletons.  ``repro.obs.profile``
(imported explicitly, not re-exported here) builds the ``repro
profile`` subcommand on top.
"""

from repro.obs.context import (
    Instrumentation,
    NULL_INSTRUMENTATION,
    get_instrumentation,
    instrumented,
    make_instrumentation,
    reset_instrumentation,
)
from repro.obs.events import (
    Event,
    EventLog,
    NULL_EVENTS,
    NullEventLog,
    SEVERITIES,
    StderrEventSink,
    attach_logging_bridge,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_TIME_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    Timer,
)
from repro.obs.progress import StderrProgressReporter
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    parse_spans_jsonl,
    verify_span_tree,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "NULL_EVENTS",
    "NULL_INSTRUMENTATION",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullEventLog",
    "NullRegistry",
    "NullTracer",
    "SEVERITIES",
    "Span",
    "StderrEventSink",
    "StderrProgressReporter",
    "Timer",
    "Tracer",
    "attach_logging_bridge",
    "get_instrumentation",
    "instrumented",
    "make_instrumentation",
    "parse_spans_jsonl",
    "reset_instrumentation",
    "verify_span_tree",
]
