"""repro.obs — unified tracing, metrics and run-telemetry.

One observability substrate for the whole stack:

``repro.obs.clock``
    The single sanctioned monotonic-clock seam.  Everything in the tree
    that needs a timestamp routes through :func:`clock.now` /
    :func:`clock.cpu_now`; the lint suite (KRN002) flags raw
    ``time.perf_counter`` / ``time.monotonic`` calls anywhere else.
``repro.obs.metrics``
    Process-global counters / gauges / histograms with a no-op default:
    hot paths pay one attribute check (``METRICS.enabled``) when nothing
    is recording.
``repro.obs.trace``
    Span/trace API with parent/child nesting and a versioned JSON-lines
    sink, plus :class:`PhaseRecorder`, the drop-in phase clock the engine
    and :class:`~repro.sim.macro.MacroRunner` time their five phases with.
``repro.obs.dispatch``
    Kernel-entry dispatch counting via the ``@kernel`` registry — the
    replacement for the old ``sys.setprofile`` hook.
``repro.obs.report``
    :class:`RunReport` / :class:`RunTelemetry`: structured per-point run
    telemetry that reaches :func:`repro.api.run` through the executors'
    result sink and is persisted as a
    :class:`~repro.store.store.ResultStore` artifact.
``repro.obs.summary``
    Trace-file aggregation behind ``python -m repro obs summarize``.

The package is import-light (stdlib only) so instrumented hot paths and
the lint/CI tooling can depend on it without dragging in numpy.
"""

from __future__ import annotations

from repro.obs import clock, metrics, report, summary, trace
from repro.obs.metrics import MetricsRegistry, recording
from repro.obs.report import (
    RUN_REPORT_SCHEMA_VERSION,
    PointReport,
    RunReport,
    RunTelemetry,
)
from repro.obs.summary import TraceSummary, summarize_trace
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    JsonLinesTraceSink,
    ListTraceSink,
    PhaseRecorder,
    Tracer,
    install_tracer,
    span,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "clock",
    "metrics",
    "report",
    "summary",
    "trace",
    "MetricsRegistry",
    "recording",
    "RUN_REPORT_SCHEMA_VERSION",
    "PointReport",
    "RunReport",
    "RunTelemetry",
    "TraceSummary",
    "summarize_trace",
    "TRACE_SCHEMA_VERSION",
    "JsonLinesTraceSink",
    "ListTraceSink",
    "PhaseRecorder",
    "Tracer",
    "install_tracer",
    "span",
    "tracing",
    "uninstall_tracer",
]
