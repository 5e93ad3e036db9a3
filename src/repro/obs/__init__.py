"""Observability plane: tracing spans/events + streaming metrics.

The package is deliberately dependency-free (it imports nothing from the
rest of ``repro``) so every layer -- kernel, cloud, metadata, scheduling,
workload -- can import it without cycles.  See ``docs/observability.md``
for the event taxonomy, span model and exporter formats.

The package re-exports the recorder (:mod:`repro.obs.trace`) and the
streaming metrics behind it (:mod:`repro.obs.metrics`), which every
layer imports for ``NULL_TRACER``.  The post-run consumers -- trace
analysis (:mod:`repro.obs.analyze`) and the Chrome/JSONL exporters
(:mod:`repro.obs.export`) -- load only when a run is traced or
exported: import them from their modules.
"""

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TRACE_CATEGORIES,
    Tracer,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    ReservoirHistogram,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_CATEGORIES",
    "Tracer",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "ReservoirHistogram",
]
