"""Statistics and host facts shared by the workloads.

Everything here is plain arithmetic over lists the workloads collect, so
it is unit-tested in isolation (``perfbench/tests/test_measure.py``).
"""

from __future__ import annotations

import math
import os
import platform
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Optional, Sequence



@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    info: Dict[str, object]


#: Tail percentiles tried, highest first; a percentile is reported only when
#: at least ``MIN_TAIL_SAMPLES`` samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_TAIL_SAMPLES = 10


def _rank(q: float, count: int) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must lie in (0, 100]")
    return sorted(values)[_rank(q, len(values)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th."""
    return count - _rank(q, count)


def supported_tail(count: int) -> Optional[float]:
    """The highest tail percentile with ``MIN_TAIL_SAMPLES`` samples beyond."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(count, q) >= MIN_TAIL_SAMPLES:
            return q
    return None


def summarize(values: Sequence[float], q: float) -> Dict[str, float]:
    """``q``-th percentile with its sample count and the samples beyond it."""
    return {
        "value": percentile(values, q),
        "samples": len(values),
        "beyond": samples_beyond(len(values), q),
    }


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = []
    for value in values:
        if value <= 0:
            raise ValueError("geomean needs positive values")
        logs.append(math.log(value))
    if not logs:
        raise ValueError("geomean of an empty sample")
    return math.exp(sum(logs) / len(logs))


def slo_ok_share(
    latencies_s: Sequence[Optional[float]], limit_s: float, attempted: int
) -> float:
    """Share of ``attempted`` operations that succeeded within ``limit_s``.

    ``latencies_s`` holds one entry per succeeded operation and ``None``
    for an operation that failed, was rejected or returned a wrong answer;
    operations never sent count as misses through ``attempted``.
    """
    if attempted < 1:
        raise ValueError("attempted must be >= 1")
    ok = sum(1 for value in latencies_s if value is not None and value <= limit_s)
    return ok / attempted


def lru_miss_share(keys: Sequence[Hashable], capacity: int) -> float:
    """Share of ``keys`` that miss an LRU memo of ``capacity`` entries."""
    if not keys:
        return 0.0
    memo: "OrderedDict[Hashable, None]" = OrderedDict()
    misses = 0
    for key in keys:
        if key in memo:
            memo.move_to_end(key)
            continue
        misses += 1
        memo[key] = None
        if len(memo) > capacity:
            memo.popitem(last=False)
    return misses / len(keys)


def steal_ticks() -> Optional[int]:
    """Aggregate CPU steal ticks from ``/proc/stat`` (``None`` off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def host_stamp(steal_before: Optional[int], steal_after: Optional[int]) -> Dict[str, object]:
    """Facts about the host one run measured on."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    steal = None
    if steal_before is not None and steal_after is not None:
        steal = steal_after - steal_before
    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "steal_ticks": steal,
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK")
        if hasattr(os, "sysconf")
        else None,
    }
