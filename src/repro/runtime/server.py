"""Kernel-serving frontend for dynamic-shape requests.

:class:`KernelServer` implements the paper's Section IV-C3 runtime strategy
as a long-lived service: requests name a workload (or carry an arbitrary
chain via :class:`~repro.api.CompileRequest`) and a *runtime* M (the
token/batch dimension that varies per request); the server resolves them
through a chain of progressively more expensive sources:

1. the per-workload **kernel table** (in-process dict hit),
2. the **plan cache** (memory tier, then the disk store shared across
   processes), and
3. an **on-demand compile** fallback that runs the full fusion search and
   back-fills both the cache and the table.

Every request records its resolution source and latency into a
:class:`~repro.runtime.stats.ServingStats` sink, so hit rates and tail
behaviour are observable.  :meth:`KernelServer.warmup` precompiles the
paper's workload suites so steady-state traffic never leaves source 1.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.analysis.locks import make_lock
from repro.api import CompiledKernel, CompileRequest, FlashFuser, KernelTable
from repro.config import FuserConfig, warn_deprecated
from repro.ir.graph import GemmChainSpec
from repro.ir.workloads import get_chain_spec
from repro.obs.trace import tracer
from repro.runtime.batch import BatchCompiler
from repro.runtime.cache import TIER_MEMORY, PlanCache
from repro.runtime.stats import ServingStats
from repro.runtime.warmup import WarmupReport, warmup_workloads

#: Resolution sources recorded per request.
SOURCE_TABLE = "table"
SOURCE_CACHE_MEMORY = "cache:memory"
SOURCE_CACHE_DISK = "cache:disk"
SOURCE_COMPILED = ServingStats.COMPILED
#: On-demand compile resolved by a warm-started transfer search (still a
#: miss, but typically orders of magnitude cheaper than full enumeration).
SOURCE_TRANSFER = ServingStats.TRANSFER

#: Default M bins: powers of two covering decode batches through prefill
#: chunks (requests above the largest bin reuse its kernel across waves).
DEFAULT_M_BINS: Tuple[int, ...] = (16, 32, 64, 128, 256, 512)


@dataclass
class ServeResponse:
    """One served kernel request."""

    workload: str
    m: int
    bin_m: int
    kernel: CompiledKernel
    source: str
    latency_us: float
    #: Search-effort counters (candidates enumerated/analyzed/skipped) when
    #: this request ran a fusion search; ``None`` for table/cache hits.
    search_counters: Optional[Dict[str, int]] = None
    #: Per-phase search wall clock in microseconds (enumerate_prune /
    #: analyze / rank / profile, or transfer) when this request ran a
    #: fusion search; ``None`` for table/cache hits.
    phase_times_us: Optional[Dict[str, float]] = None


def _search_counters(
    kernel: CompiledKernel, source: str
) -> Optional[Dict[str, int]]:
    """Deterministic search-effort counters for a compile-sourced response."""
    if not ServingStats.is_compile_source(source):
        return None
    search = kernel.search
    return {
        "candidates_enumerated": int(
            getattr(search, "candidates_enumerated", 0)
        ),
        "candidates_analyzed": int(getattr(search, "candidates_analyzed", 0)),
        "candidates_skipped": int(getattr(search, "candidates_skipped", 0)),
    }


def _phase_times(
    kernel: CompiledKernel, source: str
) -> Optional[Dict[str, float]]:
    """Per-phase search-time attribution for a compile-sourced response."""
    if not ServingStats.is_compile_source(source):
        return None
    phases = getattr(kernel.search, "phase_times_us", None)
    return dict(phases) if phases else None


class KernelServer:
    """Resolve dynamic-shape requests to compiled kernels.

    Parameters
    ----------
    compiler:
        The compiler backing cache misses.  When omitted, one is built from
        ``config`` and the constructor overrides.
    cache:
        Plan cache attached to the compiler when it has none (pass a
        :class:`~repro.runtime.cache.PlanCache` or a directory path).
        Without any cache the server still memoizes kernels in its tables,
        but nothing survives a restart.
    m_bins:
        The M bins requests are quantised to (ascending after dedup).
    stats:
        Metrics sink (a fresh :class:`ServingStats` when omitted).
    max_workers:
        Worker-pool width used by :meth:`warmup`.
    config:
        A :class:`~repro.config.FuserConfig` for the internally constructed
        compiler when ``compiler`` is omitted; any additional keyword
        arguments are applied as config overrides
        (``KernelServer(config=FuserConfig(parallelism=4), top_k=5)``).
    parallelism:
        Deprecated: set :attr:`FuserConfig.parallelism` instead.

    Example
    -------
    ::

        from repro import KernelServer

        with KernelServer(cache="~/.cache/ff", m_bins=(64, 128, 256)) as server:
            server.warmup(["G4", "S3"])              # precompile the tables
            response = server.request("G4", m=100)   # binned to 128
            print(response.source, response.kernel.time_us)
            print(server.snapshot()["serving"]["hit_rate"])
    """

    def __init__(
        self,
        compiler: Optional[FlashFuser] = None,
        cache=None,
        m_bins: Optional[Sequence[int]] = None,
        stats: Optional[ServingStats] = None,
        max_workers: Optional[int] = None,
        parallelism: Optional[int] = None,
        config: Optional[FuserConfig] = None,
        **overrides: object,
    ) -> None:
        self._overrides: Dict[str, object] = {}
        if parallelism is not None:
            warn_deprecated(
                "server-parallelism-kwarg",
                "KernelServer(parallelism=...) is deprecated; set "
                "FuserConfig.parallelism (e.g. "
                "KernelServer(config=FuserConfig(parallelism=N)))",
            )
            self._overrides["parallelism"] = parallelism
        if compiler is None:
            base = (config or FuserConfig()).replace(**overrides)
            if cache is not None and base.cache is None:
                base = base.replace(cache=cache)
            compiler = FlashFuser(base)
        else:
            if config is not None or overrides:
                raise ValueError(
                    "pass either compiler= or config=/overrides, not both"
                )
            if cache is not None and compiler.cache is None:
                compiler.cache = cache
        self.compiler = compiler
        self.cache = compiler.cache
        bins = tuple(sorted(set(m_bins if m_bins is not None else DEFAULT_M_BINS)))
        if not bins:
            raise ValueError("m_bins must be non-empty")
        if any(m <= 0 for m in bins):
            raise ValueError("m_bins must be positive")
        self.m_bins = bins
        self.stats = stats or ServingStats()
        self.batch = BatchCompiler(
            compiler, max_workers=max_workers, overrides=self._overrides
        )
        self._tables: Dict[str, KernelTable] = {}
        self._chains: Dict[str, GemmChainSpec] = {}
        self._lock = make_lock("kernel-server", reentrant=True)
        # One lock per (workload, bin) so concurrent first requests for the
        # same kernel run a single search instead of racing duplicates.
        self._inflight: Dict[Tuple[str, int], threading.Lock] = {}

    @property
    def parallelism(self) -> Optional[int]:
        """The effective cold-compile fan-out for this server's misses."""
        override = self._overrides.get("parallelism")
        if override is not None:
            return int(override)
        return self.compiler.config.parallelism

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def bin_for(self, m: int) -> int:
        """Quantise a runtime M to the smallest covering bin (or largest)."""
        if m <= 0:
            raise ValueError("m must be positive")
        index = bisect.bisect_left(self.m_bins, m)
        return self.m_bins[min(index, len(self.m_bins) - 1)]

    def request(
        self,
        request: Union[str, CompileRequest],
        m: Optional[int] = None,
    ) -> ServeResponse:
        """Serve one dynamic-shape request.

        Accepts the classic form — ``request("G4", m)`` with a workload id
        and a runtime M — or a :class:`~repro.api.CompileRequest`, which may
        carry an arbitrary chain instead of a workload id (keyed in the
        server's tables by the chain's M-independent canonical shape) and
        per-request config overrides for the cold-compile path.

        Raises :class:`~repro.api.FusionError` when the request falls
        through to an on-demand compile and no feasible fused plan exists.
        """
        start = time.perf_counter()
        key, base, runtime_m, overrides = self._parse_request(request, m)
        bin_m = self.bin_for(runtime_m)
        # The shared kernel tables are keyed by (workload/shape, bin) only,
        # so they may serve and store solely kernels compiled under the
        # server's own config.  parallelism, incremental and trace cannot
        # change the selected plan; any other override reshapes it, so such
        # requests bypass the table (they still resolve through the plan
        # cache and compile path).
        plan_neutral = set(overrides) <= {"parallelism", "incremental", "trace"}
        with tracer().span(
            "server.request", workload=key, m=runtime_m, bin=bin_m
        ) as span:
            if not plan_neutral:
                binned = base.scaled(m=bin_m, name=f"{base.name}_m{bin_m}")
                kernel, source = self._resolve_miss(binned, overrides)
                latency_us = (time.perf_counter() - start) * 1e6
                self.stats.record_request(key, source, latency_us)
                span.set("source", source)
                return ServeResponse(
                    workload=key,
                    m=runtime_m,
                    bin_m=bin_m,
                    kernel=kernel,
                    source=source,
                    latency_us=latency_us,
                    search_counters=_search_counters(kernel, source),
                    phase_times_us=_phase_times(kernel, source),
                )
            with self._lock:
                table = self._tables.setdefault(key, KernelTable(chain=base))
                kernel = table.kernels.get(bin_m)
            source = SOURCE_TABLE
            if kernel is None:
                with self._lock:
                    inflight = self._inflight.setdefault(
                        (key, bin_m),
                        make_lock(f"kernel-server.inflight[{key}:{bin_m}]"),
                    )
                with inflight:
                    # Another request may have resolved this bin while we
                    # waited.
                    with self._lock:
                        kernel = table.kernels.get(bin_m)
                    if kernel is None:
                        binned = base.scaled(
                            m=bin_m, name=f"{base.name}_m{bin_m}"
                        )
                        kernel, source = self._resolve_miss(binned, overrides)
                        with self._lock:
                            table.kernels[bin_m] = kernel
            latency_us = (time.perf_counter() - start) * 1e6
            self.stats.record_request(key, source, latency_us)
            span.set("source", source)
            return ServeResponse(
                workload=key,
                m=runtime_m,
                bin_m=bin_m,
                kernel=kernel,
                source=source,
                latency_us=latency_us,
                search_counters=_search_counters(kernel, source),
                phase_times_us=_phase_times(kernel, source),
            )

    # ------------------------------------------------------------------ #
    # Warmup and introspection
    # ------------------------------------------------------------------ #
    def warmup(
        self,
        workload_ids: Optional[Sequence[str]] = None,
        m_bins: Optional[Sequence[int]] = None,
    ) -> WarmupReport:
        """Precompile workloads into the cache and this server's tables."""
        report = warmup_workloads(
            self.batch,
            workload_ids=workload_ids,
            m_bins=m_bins if m_bins is not None else self.m_bins,
        )
        with self._lock:
            for workload_id, table in report.tables.items():
                existing = self._tables.setdefault(
                    workload_id, KernelTable(chain=table.chain)
                )
                existing.kernels.update(table.kernels)
        return report

    def close(self) -> None:
        """Release compiler-held worker pools (idempotent).

        Long-lived deployments using parallel search should close the server
        (or use it as a context manager) when retiring it, so the process
        pool behind cold compiles does not outlive the serving loop.
        """
        self.compiler.close()

    def __enter__(self) -> "KernelServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def table_for(self, workload_id: str) -> Optional[KernelTable]:
        """The kernel table currently held for ``workload_id`` (or ``None``)."""
        with self._lock:
            return self._tables.get(workload_id)

    def snapshot(self) -> Dict[str, object]:
        """Combined serving and cache metrics."""
        payload: Dict[str, object] = {"serving": self.stats.snapshot()}
        if self.cache is not None:
            payload["cache"] = self.cache.stats.snapshot()
        with self._lock:
            payload["tables"] = {
                workload_id: table.bins()
                for workload_id, table in self._tables.items()
            }
        return payload

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _parse_request(
        self, request: Union[str, CompileRequest], m: Optional[int]
    ) -> Tuple[str, GemmChainSpec, int, Dict[str, object]]:
        """Normalize a request to (table key, base chain, runtime M, overrides)."""
        if isinstance(request, CompileRequest):
            if m is not None:
                raise TypeError(
                    "pass the runtime M inside the CompileRequest (m=...), "
                    "not as a second argument"
                )
            overrides = {**self._overrides, **request.overrides}
            if request.workload is not None:
                key = request.workload
                base = self._base_chain(key)
            else:
                base = request.chain
                key = self._chain_key(base)
                with self._lock:
                    self._chains.setdefault(key, base)
            runtime_m = request.m if request.m is not None else base.m
            return key, base, runtime_m, overrides
        if m is None:
            raise TypeError("request(workload_id, m) requires a runtime M")
        return request, self._base_chain(request), m, dict(self._overrides)

    @staticmethod
    def _chain_key(chain: GemmChainSpec) -> str:
        """Table key for an explicit chain: its M-independent shape.

        The runtime M is what requests vary, so it is excluded — requests
        for the same N/K/L family share one table regardless of the M their
        chain object happened to carry.
        """
        identity = {
            k: v for k, v in chain.canonical_dict().items() if k != "m"
        }
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return "chain:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def _base_chain(self, workload_id: str) -> GemmChainSpec:
        with self._lock:
            chain = self._chains.get(workload_id)
            if chain is None:
                chain = get_chain_spec(workload_id)
                self._chains[workload_id] = chain
            return chain

    def _resolve_miss(
        self, chain: GemmChainSpec, overrides: Dict[str, object]
    ) -> Tuple[CompiledKernel, str]:
        """Resolve a table miss through the cache, then :meth:`_compile`.

        The cache is consulted directly (rather than inferring the source
        afterwards) so the recorded source is what actually happened — an
        unreadable disk entry, for example, is reported as a compile.
        """
        cache, key = self._cache_slot(chain, overrides)
        if cache is not None:
            with tracer().span("server.cache", chain=chain.name) as span:
                tier = cache.tier_of(key)
                kernel = cache.load_kernel(key, chain=chain)
                span.set("hit", kernel is not None)
            if kernel is not None:
                source = (
                    SOURCE_CACHE_MEMORY if tier == TIER_MEMORY else SOURCE_CACHE_DISK
                )
                return kernel, source
        with tracer().span("server.compile", chain=chain.name):
            return self._compile(chain, overrides)

    def _compile(
        self, chain: GemmChainSpec, overrides: Dict[str, object]
    ) -> Tuple[CompiledKernel, str]:
        """Compile a chain no table or cache tier holds: the miss hook.

        Runs the fusion search in this process and answers with the kernel
        and its source (``compiled`` or ``compiled:transfer``).  Subclasses
        override this one method to compile elsewhere; the caller holds the
        per-(key, bin) single-flight lock, so it runs once per miss.
        """
        response = self.compiler.compile_request(
            CompileRequest(chain=chain, overrides=overrides)
        )
        if getattr(response.kernel.search, "mode", "exact") == "transfer":
            return response.kernel, SOURCE_TRANSFER
        return response.kernel, SOURCE_COMPILED

    def _cache_slot(
        self, chain: GemmChainSpec, overrides: Dict[str, object]
    ) -> Tuple[Optional[PlanCache], Optional[str]]:
        """The plan cache and key a compile of ``chain`` stores under.

        Resolves the cache and device exactly as ``compile_request`` will,
        so the key is right even when the overrides redirect the device or
        the cache; ``(None, None)`` when no cache applies.
        """
        config = self.compiler.config.replace(**overrides)
        cache = self.compiler._cache_for(config)
        if cache is None:
            return None, None
        key = cache.key_for(
            chain, self.compiler._device_for(config), config.cache_key_fields()
        )
        return cache, key
