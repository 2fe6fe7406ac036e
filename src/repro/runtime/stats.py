"""Serving metrics: per-request counters and latency aggregation.

:class:`ServingStats` is the metrics sink shared by the runtime layer — the
:class:`~repro.runtime.server.KernelServer` records every request's
resolution source (kernel table, plan cache tier, or on-demand compile) and
its wall-clock resolution latency.  The samples live in the sink's
:class:`~repro.obs.metrics.MetricsRegistry` (``stats.registry``), the one
store every view reads: :meth:`ServingStats.to_dict` derives its counts and
latency summaries from the same histograms :meth:`ServingStats.prometheus_text`
renders for a Prometheus scrape.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.analysis.locks import make_lock
from repro.obs.metrics import Counter, Histogram, MetricsRegistry


def _latency_summary(histogram: Histogram) -> Dict[str, object]:
    """The ``latency_us`` view of one histogram (pinned key order)."""
    return {
        "count": histogram.count,
        "mean_us": histogram.total / histogram.count if histogram.count else 0.0,
        "min_us": histogram.min if histogram.count else 0.0,
        "max_us": histogram.max,
        "p50_us": histogram.quantile(50),
        "p95_us": histogram.quantile(95),
        "buckets": {
            str(index): histogram.buckets[index]
            for index in sorted(histogram.buckets)
        },
    }


class ServingStats:
    """Thread-safe request metrics for the kernel-serving frontend.

    Each request is recorded once: one observation on the per-source
    ``repro_serving_latency_us{source=}`` histogram and one increment of
    the ``repro_serving_requests_by_workload_total{workload=}`` counter,
    both samples of :attr:`registry`.  Request, hit and miss counts, the
    per-source breakdown and the overall latency are derived from the
    per-source histograms when read.  A request is a *hit* when it was
    satisfied without running a fusion search (table or cache sources);
    every compile source — the on-demand exact ``"compiled"`` search and
    its warm-started ``"compiled:transfer"`` variant — is a miss.

    Example
    -------
    >>> stats = ServingStats()
    >>> stats.record_request("G4", "compiled", 1500.0)
    >>> stats.record_request("G4", "compiled:transfer", 200.0)
    >>> stats.record_request("G4", "table", 40.0)
    >>> stats.hits, stats.misses, stats.hit_rate()
    (1, 2, 0.3333333333333333)
    >>> stats.to_dict()["by_source"]
    {'compiled': 1, 'compiled:transfer': 1, 'table': 1}
    """

    #: The resolution source recorded for on-demand exact compiles.
    COMPILED = "compiled"
    #: On-demand compiles resolved by a warm-started transfer search seeded
    #: from the nearest previously compiled shape (still a miss — a search
    #: ran — but a far cheaper one).
    TRANSFER = "compiled:transfer"

    @classmethod
    def is_compile_source(cls, source: str) -> bool:
        """Whether ``source`` denotes an on-demand compile (a miss).

        Compile-source variants share the ``"compiled"`` prefix with a
        ``:qualifier`` suffix, so aggregation layers can classify sources
        without enumerating every variant.

        >>> ServingStats.is_compile_source("compiled")
        True
        >>> ServingStats.is_compile_source("compiled:transfer")
        True
        >>> ServingStats.is_compile_source("table")
        False
        """
        return source == cls.COMPILED or source.startswith(cls.COMPILED + ":")

    def __init__(self) -> None:
        self._lock = make_lock("serving-stats")
        self.reset()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_request(self, workload: str, source: str, latency_us: float) -> None:
        """Record one served request."""
        with self._lock:
            latency = self._latency.get(source)
            if latency is None:
                latency = self.registry.histogram(
                    "repro_serving_latency_us",
                    "Request resolution latency by source (log buckets)",
                    source=source,
                )
                self._latency[source] = latency
            latency.observe(latency_us)
            requests = self._workloads.get(workload)
            if requests is None:
                requests = self.registry.counter(
                    "repro_serving_requests_by_workload_total",
                    "Requests served by workload",
                    workload=workload,
                )
                self._workloads[workload] = requests
            requests.inc()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def by_source(self) -> Dict[str, int]:
        """Requests per resolution source, key-sorted."""
        with self._lock:
            return self._by_source()

    @property
    def requests(self) -> int:
        """Requests served."""
        return sum(self.by_source.values())

    @property
    def misses(self) -> int:
        """Requests that fell through to an on-demand fusion search."""
        return self._misses(self.by_source)

    @property
    def hits(self) -> int:
        """Requests satisfied without running the fusion search."""
        return self.requests - self.misses

    def hit_rate(self) -> float:
        """Fraction of requests served without a search (0.0 when idle)."""
        by_source = self.by_source
        requests = sum(by_source.values())
        return (requests - self._misses(by_source)) / requests if requests else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Every counter and latency aggregate, with a stable key order.

        Top-level keys appear in a fixed order and map-valued sections
        (``by_source``, ``by_workload``, ``latency_us``) are key-sorted, so
        two snapshots of equal state serialize to byte-identical JSON and
        CI artifacts diff cleanly across runs.

        Example
        -------
        >>> stats = ServingStats()
        >>> stats.record_request("G4", "table", 42.0)
        >>> payload = stats.to_dict()
        >>> payload["requests"], payload["hit_rate"]
        (1, 1.0)
        >>> list(payload["by_source"])
        ['table']
        """
        with self._lock:
            by_source = self._by_source()
            requests = sum(by_source.values())
            misses = self._misses(by_source)
            return {
                "requests": requests,
                "hits": requests - misses,
                "misses": misses,
                "hit_rate": (requests - misses) / requests if requests else 0.0,
                "by_source": by_source,
                "by_workload": {
                    workload: int(self._workloads[workload].value)
                    for workload in sorted(self._workloads)
                },
                "latency_us": {
                    source: _latency_summary(self._latency[source])
                    for source in sorted(self._latency)
                },
                "overall_latency_us": _latency_summary(self._overall()),
            }

    def prometheus_text(self) -> str:
        """:meth:`MetricsRegistry.prometheus_text` of :attr:`registry`.

        Rendered under the lock :meth:`record_request` holds, so a scrape
        never iterates a histogram while a request adds a bucket to it, and
        each ``_count`` equals its ``+Inf`` bucket.
        """
        with self._lock:
            return self.registry.prometheus_text()

    def reset(self) -> None:
        """Zero every counter (a fresh :attr:`registry`)."""
        with self._lock:
            #: The registry holding every sample this sink records.
            self.registry = MetricsRegistry()
            self._latency: Dict[str, Histogram] = {}
            self._workloads: Dict[str, Counter] = {}

    # ------------------------------------------------------------------ #
    # Internals (callers of the underscored readers hold the lock)
    # ------------------------------------------------------------------ #
    def _by_source(self) -> Dict[str, int]:
        return {
            source: self._latency[source].count for source in sorted(self._latency)
        }

    def _overall(self) -> Histogram:
        overall = Histogram()
        for source in sorted(self._latency):
            overall.merge(self._latency[source])
        return overall

    @classmethod
    def _misses(cls, by_source: Mapping[str, int]) -> int:
        return sum(
            count
            for source, count in by_source.items()
            if cls.is_compile_source(source)
        )
