"""repro.obs — the observability subsystem: structured tracing, exporters,
terminal timelines, and the metrics registry.

The pieces:

* :mod:`repro.obs.trace` — the typed event schema (``TraceEvent``) and the
  in-memory sink (``TraceCollector``) with span/instant/counter phases.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (loads in Perfetto
  and ``chrome://tracing``), CSV, plus a validating loader that round-trips
  events losslessly.
* :mod:`repro.obs.timeline` — terminal timeline rendering and per-component
  busy/stall/idle attribution recovered from a trace.
* :mod:`repro.obs.registry` — ``MetricsRegistry``: named, queryable series
  over the scattered ``TimeWeighted``/``BusyTracker``/stats objects, with
  snapshot/diff support.

Tracing is off by default and zero-cost when disabled: every emit site is
gated on ``env.trace is None`` and the DES drain loop is untouched unless a
collector is attached.  See ``docs/observability.md``.
"""

from .trace import (
    PHASE_COUNTER,
    PHASE_INSTANT,
    PHASE_SPAN,
    SCHEMA_VERSION,
    TraceCollector,
    TraceEvent,
)
from .export import (
    load_chrome_trace,
    to_chrome_trace,
    trace_csv,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace_csv,
)
from .registry import MetricsCounter, MetricsRegistry
from .timeline import render_timeline, timeline_breakdown, timeline_table

__all__ = [
    "PHASE_COUNTER",
    "PHASE_INSTANT",
    "PHASE_SPAN",
    "SCHEMA_VERSION",
    "TraceCollector",
    "TraceEvent",
    "load_chrome_trace",
    "to_chrome_trace",
    "trace_csv",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_trace_csv",
    "MetricsCounter",
    "MetricsRegistry",
    "render_timeline",
    "timeline_breakdown",
    "timeline_table",
]
