"""End-to-end pipeline observability: span tracing and metrics.

``repro.obs`` is a zero-dependency hierarchical span tracer and metrics
registry threaded through every pipeline layer (Scala frontend -> lift ->
Merlin -> HLS estimation -> DSE -> Blaze runtime).  Spans carry the stage
name, wall-clock durations, virtual-clock attributions, and structured
attributes (design point key, board id, cache hit/miss, retry count).

The two tracer implementations share one protocol:

* :class:`Tracer` — records spans (``with tracer.span("dse.batch") as s``)
  and counts metrics (``tracer.metrics.incr(...)``);
* :class:`NullTracer` / :data:`NULL_TRACER` — the default no-op object
  every instrumented call site receives when tracing is off; its
  ``span()`` returns one shared inert handle, so the disabled hot path
  costs a single attribute lookup and call per site.

Exporters (:mod:`repro.obs.export`) write the span forest as a JSONL
span log or as Chrome ``trace_event`` JSON (loadable in
``chrome://tracing`` / Perfetto); :mod:`repro.obs.summary` renders a
plain-text per-stage breakdown, top-N listing, and flamegraph through
:mod:`repro.report`.
"""

from .metrics import NULL_METRICS, MetricsRegistry, NullMetrics  # noqa: F401
from .span import (  # noqa: F401
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)
from .export import (  # noqa: F401
    chrome_trace_document,
    load_trace,
    spans_from_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .summary import flamegraph, stage_breakdown, summarize  # noqa: F401

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "chrome_trace_document",
    "write_chrome_trace",
    "write_jsonl",
    "spans_from_jsonl",
    "load_trace",
    "validate_chrome_trace",
    "flamegraph",
    "stage_breakdown",
    "summarize",
]
