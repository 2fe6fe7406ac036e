"""Metrics primitives: percentiles, log-bucket histograms, and a registry.

Two design decisions make this module the stack's single source of truth
for latency math:

* **One percentile implementation.**  :func:`weighted_percentile` is the
  linear-interpolation estimator; :func:`percentile` (re-exported by
  :mod:`repro.bench.report`) is its unit-weight special case, and
  :func:`histogram_quantile` applies it to bucket counts.  The bench
  reports and the live histogram summaries therefore agree by
  construction.
* **Fixed log-spaced buckets.**  :func:`bucket_index` assigns every
  latency to one of :data:`BUCKETS_PER_DECADE` buckets per decade with
  process-independent boundaries, so histograms merge *exactly* — adding
  two histograms' bucket counts (and count/total/min/max) yields the same
  histogram as observing their union.

:class:`MetricsRegistry` holds :class:`Counter`/:class:`Gauge`/
:class:`Histogram` samples (optionally labelled) and renders them in the
Prometheus text exposition format.  It is the store the serving metrics
record into: ``ServingStats`` and ``CacheStats`` each own one and derive
their ``to_dict()`` views from its samples.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Log-spaced histogram resolution: bucket ``i`` spans up to
#: ``10 ** (i / BUCKETS_PER_DECADE)`` microseconds, giving five buckets per
#: decade (~58% upper/lower ratio) — coarse enough to stay sparse, fine
#: enough for p50/p95 estimates within one bucket width.
BUCKETS_PER_DECADE = 5


def bucket_index(value: float) -> int:
    """The fixed log-bucket index covering ``value``.

    Boundaries depend only on the constant :data:`BUCKETS_PER_DECADE`, so
    any two processes bucket identically and their histograms merge by
    adding counts.  Values at or below 1.0 (including 0) share bucket 0.

    Example
    -------
    >>> bucket_index(0.0), bucket_index(1.0), bucket_index(100.0)
    (0, 0, 10)
    >>> bucket_index(101.0)
    11
    """
    if value <= 1.0:
        return 0
    return max(0, math.ceil(math.log10(value) * BUCKETS_PER_DECADE))


def bucket_bound(index: int) -> float:
    """Upper bound (inclusive) of bucket ``index``.

    Example
    -------
    >>> bucket_bound(0), round(bucket_bound(10), 6)
    (1.0, 100.0)
    """
    return 10.0 ** (index / BUCKETS_PER_DECADE)


def weighted_percentile(
    values: Sequence[float], weights: Sequence[float], q: float
) -> float:
    """The ``q``-th percentile of a weighted sample (linear interpolation).

    Each ``values[i]`` counts ``weights[i]`` times; with unit weights this
    reduces exactly to the classic linear-interpolation estimator over the
    sorted sample (the rank ``(n - 1) * q / 100`` convention), which is why
    :func:`percentile` can delegate here without changing any report.

    Parameters
    ----------
    values:
        Sample values (any order).
    weights:
        Non-negative multiplicity of each value; must match ``values`` in
        length and carry positive total weight.
    q:
        Percentile in ``[0, 100]``.

    Example
    -------
    >>> weighted_percentile([10.0, 20.0, 30.0, 40.0], [1, 1, 1, 1], 50)
    25.0
    >>> weighted_percentile([10.0, 20.0], [3, 1], 50)
    10.0
    """
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    pairs = sorted(
        (float(value), float(weight))
        for value, weight in zip(values, weights)
        if weight > 0
    )
    total = sum(weight for _, weight in pairs)
    if not pairs or total <= 0:
        raise ValueError("total weight must be positive")
    rank = (total - 1.0) * q / 100.0
    if rank <= 0:
        return pairs[0][0]
    cumulative = 0.0
    previous = pairs[0][0]
    for value, weight in pairs:
        low = cumulative
        high = cumulative + weight - 1.0
        if rank <= high:
            if rank >= low:
                return value
            # The rank falls in the gap between the previous value's last
            # occupied rank (low - 1) and this value's first (low).
            fraction = rank - (low - 1.0)
            return previous + (value - previous) * fraction
        previous = value
        cumulative += weight
    return pairs[-1][0]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    The unit-weight case of :func:`weighted_percentile`; kept
    behaviour-identical to the historical ``repro.bench.report.percentile``
    (which now re-exports this function), including returning 0.0 for an
    empty sample.

    Example
    -------
    >>> percentile([10.0, 20.0, 30.0, 40.0], 50)
    25.0
    >>> percentile([7.0], 99)
    7.0
    >>> percentile([], 50)
    0.0
    """
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    if not values:
        return 0.0
    return weighted_percentile(values, [1.0] * len(values), q)


def histogram_quantile(
    buckets: Mapping[int, int],
    q: float,
    min_value: Optional[float] = None,
    max_value: Optional[float] = None,
) -> float:
    """Estimate the ``q``-th percentile from log-bucket counts.

    Each bucket contributes its *upper bound* (:func:`bucket_bound`)
    weighted by its count; the estimate is clamped into
    ``[min_value, max_value]`` when the true extremes are known (streaming
    summaries track them exactly), so single-observation histograms report
    the observation itself.

    Example
    -------
    >>> buckets = {bucket_index(42.0): 1}
    >>> histogram_quantile(buckets, 50, min_value=42.0, max_value=42.0)
    42.0
    """
    if not buckets:
        return 0.0
    indices = sorted(buckets)
    estimate = weighted_percentile(
        [bucket_bound(index) for index in indices],
        [buckets[index] for index in indices],
        q,
    )
    if max_value is not None:
        estimate = min(estimate, max_value)
    if min_value is not None:
        estimate = max(estimate, min_value)
    return estimate


# --------------------------------------------------------------------- #
# Metric samples
# --------------------------------------------------------------------- #
class Counter:
    """A monotonically growing count (one labelled sample).

    Example
    -------
    ::

        registry = MetricsRegistry()
        served = registry.counter("repro_requests_total", "Requests served")
        served.inc()
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only grow; use a Gauge instead")
        self.value += amount


class Gauge:
    """A point-in-time value (one labelled sample)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge."""
        self.value = float(value)


class Histogram:
    """A log-bucket latency histogram (one labelled sample).

    Buckets are the fixed log-spaced grid of :func:`bucket_index`, so
    :meth:`merge` (plain count addition) is exact; count, total, min and
    max are tracked alongside.  ``ServingStats`` keeps one per resolution
    source and reports their merge as its overall latency.

    Example
    -------
    >>> histogram = Histogram()
    >>> for value in (10.0, 20.0, 900.0):
    ...     histogram.observe(value)
    >>> histogram.count, histogram.quantile(100)
    (3, 900.0)
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Fold one observation into the histogram."""
        if value < 0:
            raise ValueError("histogram observations must be non-negative")
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram exactly (returns self)."""
        if other.count:
            self.count += other.count
            self.total += other.total
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            for index, count in other.buckets.items():
                self.buckets[index] = self.buckets.get(index, 0) + count
        return self

    def quantile(self, q: float) -> float:
        """Bucket-estimated percentile, clamped to the observed extremes."""
        if not self.count:
            return 0.0
        return histogram_quantile(
            self.buckets, q, min_value=self.min, max_value=self.max
        )

    def snapshot(self) -> Dict[str, object]:
        """Plain-dictionary view (pinned key order)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.quantile(50),
            "p95": self.quantile(95),
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }


_KIND_OF = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class MetricsRegistry:
    """A named collection of labelled counter/gauge/histogram samples.

    Samples are created on first access and identified by metric name plus
    a sorted label set; re-accessing returns the same sample, so a recorder
    can fetch a sample once and keep the reference.  Rendering
    is deterministic: metrics sort by name, samples by label tuple, and the
    JSON :meth:`snapshot` pins its key order — equal registry state always
    serializes identically.

    Example
    -------
    >>> registry = MetricsRegistry()
    >>> registry.counter("repro_requests_total", "Total requests").inc(3)
    >>> registry.gauge("repro_queue_depth", worker="0").set(2)
    >>> print(registry.prometheus_text().splitlines()[4])
    repro_requests_total 3
    """

    def __init__(self) -> None:
        # name -> (kind, help, {label tuple -> sample})
        self._metrics: Dict[str, Tuple[str, str, Dict[tuple, object]]] = {}

    # -- sample access --------------------------------------------------- #
    def _sample(self, factory: type, name: str, help_text: str, labels):
        kind = _KIND_OF[factory]
        entry = self._metrics.get(name)
        if entry is None:
            entry = (kind, help_text, {})
            self._metrics[name] = entry
        elif entry[0] != kind:
            raise ValueError(
                f"metric {name!r} is a {entry[0]}, not a {kind}"
            )
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        sample = entry[2].get(key)
        if sample is None:
            sample = factory()
            entry[2][key] = sample
        return sample

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        """Get or create the :class:`Counter` sample ``name``/``labels``.

        Parameters
        ----------
        name:
            Prometheus-style metric name.
        help_text:
            One-line description (first registration wins).
        """
        return self._sample(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        """Get or create the :class:`Gauge` sample ``name``/``labels``.

        Parameters
        ----------
        name:
            Prometheus-style metric name.
        help_text:
            One-line description (first registration wins).
        """
        return self._sample(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "", **labels) -> Histogram:
        """Get or create the :class:`Histogram` sample ``name``/``labels``.

        Parameters
        ----------
        name:
            Prometheus-style metric name.
        help_text:
            One-line description (first registration wins).
        """
        return self._sample(Histogram, name, help_text, labels)

    # -- rendering ------------------------------------------------------- #
    @staticmethod
    def _label_text(key: tuple, extra: str = "") -> str:
        parts = [f'{name}="{value}"' for name, value in key]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def prometheus_text(self) -> str:
        """Render every metric in the Prometheus text exposition format.

        Histograms render the standard cumulative ``_bucket``/``_sum``/
        ``_count`` series with ``le`` boundaries from the fixed log grid.
        Output is deterministically ordered (metric name, then label set).

        Example
        -------
        ::

            registry = MetricsRegistry()
            registry.counter("repro_requests_total").inc()
            open("metrics.prom", "w").write(registry.prometheus_text())

        The registry takes no lock: a sink that records from several
        threads renders through its own lock (``ServingStats.prometheus_text``,
        ``CacheStats.prometheus_text``).
        """
        lines: List[str] = []
        for name in sorted(self._metrics):
            kind, help_text, samples = self._metrics[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(samples):
                sample = samples[key]
                if isinstance(sample, Histogram):
                    cumulative = 0
                    for index in sorted(sample.buckets):
                        cumulative += sample.buckets[index]
                        le = f'le="{bucket_bound(index):g}"'
                        lines.append(
                            f"{name}_bucket{self._label_text(key, le)} "
                            f"{cumulative}"
                        )
                    inf_label = 'le="+Inf"'
                    lines.append(
                        f"{name}_bucket{self._label_text(key, inf_label)} "
                        f"{sample.count}"
                    )
                    lines.append(
                        f"{name}_sum{self._label_text(key)} {sample.total:g}"
                    )
                    lines.append(
                        f"{name}_count{self._label_text(key)} {sample.count}"
                    )
                else:
                    lines.append(
                        f"{name}{self._label_text(key)} {sample.value:g}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """JSON-able registry state with a pinned key order.

        Top-level keys are the metric kinds; within each, metrics sort by
        name and samples by rendered label string, so equal registry state
        serializes byte-identically (the same contract as the stack's
        ``to_dict`` methods).
        """
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for name in sorted(self._metrics):
            kind, _, samples = self._metrics[name]
            sink = {
                "counter": counters,
                "gauge": gauges,
                "histogram": histograms,
            }[kind]
            for key in sorted(samples):
                sample = samples[key]
                label = f"{name}{self._label_text(key)}"
                if isinstance(sample, Histogram):
                    sink[label] = sample.snapshot()
                else:
                    sink[label] = sample.value
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
