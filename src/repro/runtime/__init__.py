"""Runtime serving subsystem.

The compiler layers below this package answer "what is the best fused kernel
for this chain?"; this package answers "how do we serve that answer to heavy
traffic without re-paying the fusion search?".  It provides:

* :mod:`repro.runtime.cache` — a two-tier (in-process LRU + disk JSON)
  persistent plan cache keyed by canonical chain/device/search identity;
* :mod:`repro.runtime.server` — the :class:`KernelServer` frontend that
  resolves dynamic-shape requests through table → cache → compile;
* :mod:`repro.runtime.warmup` — suite precompilation ahead of traffic,
  fanned out through :meth:`~repro.api.FlashFuser.compile_chains`;
* :mod:`repro.runtime.stats` — request/latency metrics over registry samples.
"""

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
