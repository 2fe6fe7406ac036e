"""Observability layer: tracing, metrics, and structured logging.

The serving stack's aggregate stats (:class:`~repro.runtime.stats.ServingStats`,
:class:`~repro.runtime.cache.CacheStats`, :class:`~repro.fleet.stats.FleetStats`)
answer "how did the fleet do overall" — the first two are views over samples
of this package's :class:`MetricsRegistry`, their one store; this package also
answers "where did *this* request spend its time":

* :mod:`repro.obs.trace` — a span-based tracer with deterministic IDs,
  thread- and process-boundary context propagation, JSONL span files and
  Chrome trace-event export (loadable in Perfetto).  Off by default; enabled
  via ``REPRO_TRACE=1`` (the same zero-overhead-when-off pattern as
  ``REPRO_LOCK_CHECK``'s lock factory).
* :mod:`repro.obs.metrics` — counters/gauges/histograms with fixed
  log-spaced latency buckets (merges are exact), the registry the serving
  stats record into, a Prometheus text-exposition writer, and the single
  shared percentile implementation the bench layer delegates to.
* :mod:`repro.obs.logging` — the ``repro.*`` structured-logging namespace,
  levelled via ``REPRO_LOG_LEVEL``.
* :mod:`repro.obs.summary` — trace stitching, per-stage breakdowns and
  critical-path extraction over exported span files; also behind
  ``python -m repro.obs summarize <trace.jsonl>``.
"""

from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    bucket_bound,
    bucket_index,
    histogram_quantile,
    percentile,
    weighted_percentile,
)
from repro.obs.trace import SpanContext, Tracer, tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "SpanContext",
    "Tracer",
    "bucket_bound",
    "bucket_index",
    "get_logger",
    "histogram_quantile",
    "log_event",
    "percentile",
    "tracer",
    "weighted_percentile",
]
