"""Runtime serving subsystem.

The compiler layers below this package answer "what is the best fused kernel
for this chain?"; this package answers "how do we serve that answer to heavy
traffic without re-paying the fusion search?".  It provides:

* :mod:`repro.runtime.cache` — a two-tier (in-process LRU + disk JSON)
  persistent plan cache keyed by canonical chain/device/search identity;
* :mod:`repro.runtime.batch` — a parallel batch compiler with cache
  deduplication for kernel-table and multi-workload compile jobs;
* :mod:`repro.runtime.server` — the :class:`KernelServer` frontend that
  resolves dynamic-shape requests through table → cache → compile;
* :mod:`repro.runtime.warmup` — suite precompilation ahead of traffic;
* :mod:`repro.runtime.stats` — request/latency metrics over registry samples.
"""

from repro.runtime.batch import BatchCompiler, BatchItem, BatchReport
from repro.runtime.cache import (
    CacheStats,
    PlanCache,
    PlanCacheEntry,
    plan_cache_key,
)
from repro.runtime.server import (
    DEFAULT_M_BINS,
    KernelServer,
    ServeResponse,
)
from repro.runtime.stats import ServingStats
from repro.runtime.warmup import (
    WarmupReport,
    default_warmup_workloads,
    warmup_workloads,
)

__all__ = [
    "BatchCompiler",
    "BatchItem",
    "BatchReport",
    "CacheStats",
    "PlanCache",
    "PlanCacheEntry",
    "plan_cache_key",
    "DEFAULT_M_BINS",
    "KernelServer",
    "ServeResponse",
    "ServingStats",
    "WarmupReport",
    "default_warmup_workloads",
    "warmup_workloads",
]
