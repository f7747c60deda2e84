"""Observability substrate: metrics, tracing spans, logging, manifests.

The flow's measurement surface, used by every level of the
device→cell→array pipeline:

* :func:`get_registry` / :func:`enable_metrics` — process-wide
  counters, gauges and timers (:mod:`repro.obs.registry`).
* :func:`span` / :func:`configure_tracing` — nesting wall-time spans
  streamed to a JSONL trace file (:mod:`repro.obs.trace`).
* :func:`configure_logging` / :func:`get_logger` — structured
  diagnostic logging with a quiet/level knob (:mod:`repro.obs.log`).
* :class:`RunManifest` / :func:`build_manifest` — the per-invocation
  JSON run record (:mod:`repro.obs.manifest`).

Everything is **disabled by default** and zero-cost in that state: the
registry is a shared no-op, ``span()`` returns a shared no-op context
manager, and library loggers carry a ``NullHandler``.  The CLI enables
the pieces requested by ``--log-level``, ``--metrics-out`` and
``--trace``.
"""

from .convergence import (
    ConvergenceTracker,
    binomial_standard_error,
    get_convergence_tracker,
    record_bin,
    reset_convergence,
)
from .events import (
    EventBus,
    EventRing,
    configure_events,
    disable_events,
    emit_event,
    events_enabled,
    get_event_bus,
)
from .jsonl import JsonlWriter, read_jsonl
from .log import (
    configure_logging,
    get_logger,
    get_output_logger,
    kv,
)
from .manifest import RunManifest, build_manifest, capture_environment
from .registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    Timer,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
)
from .trace import (
    Span,
    TraceWriter,
    configure_tracing,
    current_span,
    reset_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    # registry
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Timer",
    "get_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    # tracing
    "span",
    "Span",
    "TraceWriter",
    "configure_tracing",
    "reset_tracing",
    "tracing_enabled",
    "current_span",
    # logging
    "configure_logging",
    "get_logger",
    "get_output_logger",
    "kv",
    # events
    "EventBus",
    "EventRing",
    "configure_events",
    "disable_events",
    "emit_event",
    "events_enabled",
    "get_event_bus",
    # convergence
    "ConvergenceTracker",
    "binomial_standard_error",
    "get_convergence_tracker",
    "record_bin",
    "reset_convergence",
    # jsonl
    "JsonlWriter",
    "read_jsonl",
    # manifest
    "RunManifest",
    "build_manifest",
    "capture_environment",
]
