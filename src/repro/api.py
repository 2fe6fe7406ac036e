"""High-level public API.

:class:`FlashFuser` is the compiler facade a downstream user interacts with:
it owns the hardware model, the search engine and the simulator, and turns a
:class:`~repro.ir.graph.GemmChainSpec` (or a workload id from the paper's
tables) into a :class:`CompiledKernel` — the selected execution plan, the
generated kernel source, and the simulated performance report.

The facade is configured by one :class:`~repro.config.FuserConfig` value
(``FlashFuser(config, **overrides)``); the pre-config kwargs keep working
because every config field doubles as a constructor override.  Structured
entry points wrap the same pipeline: a :class:`CompileRequest` names a chain
*or* a workload id (plus optional per-request config overrides) and
:meth:`FlashFuser.compile_request` / :meth:`FlashFuser.submit` answer with a
:class:`CompileResponse` carrying the kernel and its provenance (effective
config, the cache tier that served it, cache key, wall clock);
:meth:`FlashFuser.compile_chains` fans a list of chains out over the same
pipeline, one search per distinct shape.

A :class:`KernelTable` implements the runtime strategy of Section IV-C3:
kernels are compiled offline for a set of M bins (N, K and L are fixed by
the model) and selected at runtime with a table lookup.
"""

from __future__ import annotations

import bisect
import json
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.locks import make_lock
from repro.codegen.cuda_emitter import emit_cuda
from repro.codegen.kernel_ir import KernelIR, lower_plan
from repro.codegen.plan import ExecutionPlan
from repro.config import FuserConfig
from repro.errors import FusionError
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import GemmChainSpec
from repro.ir.workloads import get_workload
from repro.obs.trace import tracer
from repro.search.cost_model import CostModel
from repro.search.engine import SearchEngine, SearchResult, SearchSummary
from repro.search.incremental import ShapeIndex, TransferSeed, shape_family_key
from repro.sim.engine import PerformanceSimulator, SimulationReport
from repro.sim.profiler import MemoryProfiler, TrafficReport

#: Memoization key for the compiler's own configured device (the common
#: case), sparing a fingerprint serialization per compile.
_DEFAULT_DEVICE_KEY = "<configured-device>"


@dataclass
class CompiledKernel:
    """The result of compiling one chain.

    Bundles everything the compiler produced for one
    :class:`~repro.ir.graph.GemmChainSpec`: the selected execution plan, the
    lowered kernel IR and CUDA-like source, the simulated performance
    report, the search result (or its persisted summary when the kernel was
    rehydrated from the plan cache), and the global-memory traffic profile.

    Example
    -------
    ::

        from repro import FlashFuser

        with FlashFuser(top_k=5, max_tile=128) as compiler:
            kernel = compiler.compile_workload("G4")
        print(kernel.time_us, kernel.tflops, kernel.from_cache)
        print(kernel.summary())
    """

    plan: ExecutionPlan
    kernel_ir: KernelIR
    source: str
    report: SimulationReport
    #: A full :class:`SearchResult` for freshly compiled kernels, or the
    #: persisted :class:`SearchSummary` for kernels served by the plan cache.
    search: Union[SearchResult, SearchSummary]
    traffic: TrafficReport

    @property
    def from_cache(self) -> bool:
        """Whether this kernel was rehydrated from the plan cache."""
        return getattr(self.search, "from_cache", False)

    @property
    def time_us(self) -> float:
        """Simulated execution time of the fused kernel."""
        return self.report.time_us

    @property
    def tflops(self) -> float:
        """Simulated sustained TFLOPS."""
        return self.plan.chain.total_flops() / self.time_us / 1e6

    def summary(self) -> Dict[str, object]:
        """Human-readable summary used by the examples."""
        summary = self.plan.summary()
        summary.update(
            {
                "time_us": self.time_us,
                "tflops": self.tflops,
                "global_bytes": self.traffic.total_bytes,
                "search_time_s": self.search.search_time_s,
                "candidates_analyzed": self.search.candidates_analyzed,
            }
        )
        return summary


@dataclass(frozen=True)
class CompileRequest:
    """One structured compile job: what to compile, and with which knobs.

    Exactly one of ``chain`` and ``workload`` must be given.  ``m`` rescales
    the chain's M extent (the runtime token/batch dimension); ``overrides``
    are per-request :class:`~repro.config.FuserConfig` field overrides,
    applied on top of the serving compiler's config — e.g.
    ``{"top_k": 5}`` to profile fewer candidates for one request without
    touching the shared configuration.

    Example
    -------
    >>> request = CompileRequest(workload="G4", m=256)
    >>> request.resolve_chain().m
    256
    >>> CompileRequest(workload="G4", chain=request.resolve_chain())
    Traceback (most recent call last):
        ...
    ValueError: exactly one of chain= and workload= must be provided
    """

    chain: Optional[GemmChainSpec] = None
    workload: Optional[str] = None
    m: Optional[int] = None
    overrides: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.chain is None) == (self.workload is None):
            raise ValueError(
                "exactly one of chain= and workload= must be provided"
            )
        if self.m is not None and self.m <= 0:
            raise ValueError("m must be positive")
        # Snapshot the overrides so a caller mutating its dict afterwards
        # cannot change an already-constructed request.
        object.__setattr__(self, "overrides", dict(self.overrides))

    def resolve_chain(self) -> GemmChainSpec:
        """The concrete chain this request compiles."""
        if self.chain is not None:
            chain = self.chain
        else:
            chain = get_workload(self.workload).to_spec()
        if self.m is not None and self.m != chain.m:
            chain = chain.scaled(m=self.m)
        return chain


@dataclass
class CompileResponse:
    """A compiled kernel plus the provenance of how it was produced.

    Returned by :meth:`FlashFuser.compile_request` and resolved from the
    futures of :meth:`FlashFuser.submit`: the kernel itself, the request it
    answers, the effective configuration after per-request overrides, and
    the cache provenance (the tier that served it, the key consulted,
    wall-clock time).

    Example
    -------
    ::

        from repro import CompileRequest, FlashFuser

        with FlashFuser(top_k=5, max_tile=128) as compiler:
            response = compiler.compile_request(CompileRequest(workload="G1"))
        print(response.cache_hit, response.elapsed_s)
        print(response.provenance())
    """

    kernel: CompiledKernel
    request: CompileRequest
    #: The effective configuration (request overrides applied).
    config: FuserConfig
    #: The plan-cache tier that served the kernel (``"memory"`` or
    #: ``"disk"``), or ``None`` when a search produced it.
    cache_tier: Optional[str]
    #: The plan-cache key consulted, or ``None`` when no cache is attached.
    cache_key: Optional[str]
    #: Wall-clock seconds spent resolving this request.
    elapsed_s: float

    @property
    def cache_hit(self) -> bool:
        """Whether the kernel was served by the plan cache instead of a search."""
        return self.cache_tier is not None

    def provenance(self) -> Dict[str, object]:
        """Plain-dictionary provenance view for logs and metrics."""
        return {
            "cache_hit": self.cache_hit,
            "cache_key": self.cache_key,
            "elapsed_s": self.elapsed_s,
            "search": dict(self.config.cache_key_fields()),
            #: How the plan was found: "exact" enumeration or a warm-started
            #: "transfer" search seeded from the nearest compiled shape.
            "mode": getattr(self.kernel.search, "mode", "exact"),
            "transfer": self.config.transfer,
        }


class FlashFuser:
    """The FlashFuser compiler facade.

    Parameters
    ----------
    config:
        A :class:`~repro.config.FuserConfig`.  Omitted fields take the
        config defaults (H100 model, the paper's search knobs).
    **overrides:
        Any :class:`FuserConfig` field, applied on top of ``config`` — so
        both ``FlashFuser(FuserConfig(device="a100"))`` and the familiar
        ``FlashFuser(device="a100", top_k=5)`` construct the same compiler.

    Call :meth:`close` (or use the compiler as a context manager) to release
    the worker pool held by :meth:`submit`.

    Example
    -------
    ::

        from repro import FlashFuser, FuserConfig

        config = FuserConfig(device="h100", top_k=11, cache="~/.cache/ff")
        with FlashFuser(config) as compiler:
            kernel = compiler.compile_workload("G5")      # full fusion search
            again = compiler.compile_workload("G5")       # plan-cache hit
        assert again.from_cache
    """

    def __init__(
        self,
        config: Optional[FuserConfig] = None,
        **overrides: object,
    ) -> None:
        if config is not None and not isinstance(config, FuserConfig):
            raise TypeError(
                "FlashFuser takes a FuserConfig; pass a device as device=..."
            )
        self.config = (config or FuserConfig()).replace(**overrides)
        self.device = self.config.resolve_device()
        self._cache = self.config.resolve_cache()
        self.simulator = PerformanceSimulator(self.device)
        self.cost_model = CostModel(self.device)
        self.profiler = MemoryProfiler()
        #: Engines memoized by their effective (device, search knobs) so
        #: repeated compiles reuse one engine and its analyzer caches.
        #: compile_request() is called concurrently from submit()'s pool, so
        #: lazy construction is lock-guarded; the lock is reentrant because
        #: engine construction resolves per-device toolchains under the same
        #: lock.
        self._engines: Dict[Tuple[object, ...], object] = {}
        self._engines_lock = make_lock("flashfuser-engines", reentrant=True)
        self._toolchains: Dict[str, Tuple[PerformanceSimulator, CostModel]] = {
            _DEFAULT_DEVICE_KEY: (self.simulator, self.cost_model)
        }
        #: Nearest-shape index of compiled plans' transfer seeds, warm-starting
        #: transfer searches (with or without a plan cache attached).
        self._shapes = ShapeIndex()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = make_lock("flashfuser-pool")

    # ------------------------------------------------------------------ #
    # Config-derived views
    # ------------------------------------------------------------------ #
    @property
    def top_k(self) -> int:
        return self.config.top_k

    @property
    def include_dsm(self) -> bool:
        return self.config.include_dsm

    @property
    def max_tile(self) -> int:
        return self.config.max_tile

    @property
    def cache(self):
        """The attached plan cache (``None`` when compiling uncached)."""
        return self._cache

    @cache.setter
    def cache(self, value) -> None:
        self.config = self.config.replace(cache=value)
        self._cache = self.config.resolve_cache()

    def cache_key(self, chain: GemmChainSpec) -> Optional[str]:
        """The plan-cache key for ``chain``, or ``None`` without a cache."""
        if self._cache is None:
            return None
        return self._cache.key_for(
            chain, self.device, self.config.cache_key_fields()
        )

    # ------------------------------------------------------------------ #
    # Structured compilation
    # ------------------------------------------------------------------ #
    def compile_request(self, request: CompileRequest) -> CompileResponse:
        """Resolve one :class:`CompileRequest` synchronously.

        The request's overrides are applied to this compiler's config for
        the duration of the request only.  With a cache attached (and not
        overridden away) the cache is probed once — its memory tier, then
        its disk store — and back-filled on a miss, exactly like
        :meth:`compile`; the response records which tier served the kernel.
        """
        start = time.perf_counter()
        config = self.config.replace(**request.overrides)
        chain = request.resolve_chain()
        device = self._device_for(config)
        cache = self._cache_for(config)
        key: Optional[str] = None
        kernel: Optional[CompiledKernel] = None
        tier: Optional[str] = None
        with tracer().span("compile.request", chain=chain.name) as span:
            if cache is not None:
                key = cache.key_for(chain, device, config.cache_key_fields())
                kernel, tier = cache.lookup(key, chain=chain)
            span.set("cache_hit", kernel is not None)
            if kernel is None:
                seed = self._transfer_seed(chain, config, device)
                kernel = self._compile_uncached(
                    chain, config, device, transfer_seed=seed
                )
                if cache is not None and key is not None:
                    cache.store_kernel(
                        key,
                        kernel,
                        device=device,
                        search_config=config.cache_key_fields(),
                    )
            self._register_shape(chain, config, device, kernel)
        return CompileResponse(
            kernel=kernel,
            request=request,
            config=config,
            cache_tier=tier,
            cache_key=key,
            elapsed_s=time.perf_counter() - start,
        )

    def submit(self, request: CompileRequest) -> "Future[CompileResponse]":
        """Resolve a :class:`CompileRequest` asynchronously.

        Requests run on this compiler's lazily created thread pool
        (``min(8, cpu_count)`` wide); concurrent submissions share the
        memoized search engines.  The future resolves to a
        :class:`CompileResponse`; a chain admitting no fused plan raises
        :class:`FusionError` from ``result()``.
        """
        pool = self._ensure_pool()
        ctx = tracer().capture()
        if ctx is None:
            return pool.submit(self.compile_request, request)

        def run() -> CompileResponse:
            # Re-activate the submitter's trace context on the pool thread so
            # the compile's spans stitch under the submitting request.
            with tracer().activate(ctx):
                return self.compile_request(request)

        return pool.submit(run)

    def compile_chains(
        self, chains: Sequence[GemmChainSpec]
    ) -> List[Union[CompileResponse, FusionError]]:
        """Compile many chains concurrently, one search per distinct shape.

        The chains are deduplicated by
        :meth:`~repro.ir.graph.GemmChainSpec.canonical_hash` (under one
        compiler the device and knobs are fixed, so equal hashes mean equal
        plan-cache keys).  Every distinct shape resolves through
        :meth:`compile_request`: all but the last on the :meth:`submit`
        pool, the last in the calling thread meanwhile, so a single shape
        pays no thread handoff.  Returns one entry per input chain, in
        order: its :class:`CompileResponse` (a duplicate shares the first
        equally shaped chain's response and kernel), or the
        :class:`FusionError` of a chain admitting no fused plan, kept as a
        value so every other chain still compiles.

        Example
        -------
        ::

            from repro import FlashFuser
            from repro.ir.workloads import get_chain_spec

            with FlashFuser(top_k=5, max_tile=128) as compiler:
                outcomes = compiler.compile_chains(
                    [get_chain_spec("G4"), get_chain_spec("G5"), get_chain_spec("G4")]
                )
            print([outcome.cache_hit for outcome in outcomes])
        """
        shapes = [chain.canonical_hash() for chain in chains]
        first: Dict[str, GemmChainSpec] = {}
        for shape, chain in zip(shapes, chains):
            first.setdefault(shape, chain)
        requests = [
            (shape, CompileRequest(chain=chain)) for shape, chain in first.items()
        ]
        futures = [(shape, self.submit(request)) for shape, request in requests[:-1]]
        settled = {
            shape: _settle(self.compile_request, request)
            for shape, request in requests[-1:]
        }
        settled.update((shape, _settle(future.result)) for shape, future in futures)
        return [settled[shape] for shape in shapes]

    # ------------------------------------------------------------------ #
    # Classic entry points
    # ------------------------------------------------------------------ #
    def compile(self, chain: GemmChainSpec) -> CompiledKernel:
        """Return the best fused kernel for ``chain``, consulting the cache.

        With no cache attached this always runs the full fusion search;
        with one attached, a canonically identical chain compiled before —
        by this process or a previous one — is rehydrated from the stored
        plan instead.  Pass a :class:`CompileRequest` to
        :meth:`compile_request` for per-call config overrides.
        """
        return self.compile_request(CompileRequest(chain=chain)).kernel

    def compile_workload(
        self, workload_id: str, m: Optional[int] = None
    ) -> CompiledKernel:
        """Compile one of the paper's workloads (e.g. ``"G5"`` or ``"S3"``)."""
        return self.compile_request(
            CompileRequest(workload=workload_id, m=m)
        ).kernel

    def compile_table(
        self, chain: GemmChainSpec, m_bins: Sequence[int]
    ) -> "KernelTable":
        """Compile one kernel per M bin for runtime selection.

        The bins compile concurrently through :meth:`compile_chains` (a
        repeated bin compiles once; an attached plan cache serves bins
        compiled before).  Raises the :class:`FusionError` of the first bin,
        in ``m_bins`` order, that admits no fused plan.
        """
        outcomes = self.compile_chains(
            [chain.scaled(m=m, name=f"{chain.name}_m{m}") for m in m_bins]
        )
        kernels: Dict[int, CompiledKernel] = {}
        for m, outcome in zip(m_bins, outcomes):
            if isinstance(outcome, FusionError):
                raise outcome
            kernels[m] = outcome.kernel
        return KernelTable(chain=chain, kernels=kernels)

    def close(self) -> None:
        """Release the submit pool and the memoized search engines."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._engines_lock:
            self._engines = {}

    def __enter__(self) -> "FlashFuser":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _device_for(self, config: FuserConfig) -> HardwareSpec:
        if config.device is self.config.device:
            return self.device
        return config.resolve_device()

    def _cache_for(self, config: FuserConfig):
        if config.cache is self.config.cache:
            return self._cache
        return config.resolve_cache()

    def _transfer_seed(
        self,
        chain: GemmChainSpec,
        config: FuserConfig,
        device: HardwareSpec,
    ) -> Optional[TransferSeed]:
        """The nearest-shape plan skeleton to warm-start this compile from.

        Returns ``None`` when transfer is disabled or no same-family shape
        was compiled by this compiler yet — the search then runs the full
        enumeration.
        """
        if not config.transfer:
            return None
        family = shape_family_key(chain, device, config.cache_key_fields())
        return self._shapes.nearest(family, (chain.m, chain.n, chain.k, chain.l))

    def _register_shape(
        self,
        chain: GemmChainSpec,
        config: FuserConfig,
        device: HardwareSpec,
        kernel: CompiledKernel,
    ) -> None:
        """Index this compile's shape so nearby shapes can seed from it."""
        if not config.transfer:
            return
        family = shape_family_key(chain, device, config.cache_key_fields())
        plan = kernel.plan
        self._shapes.register(
            family,
            (chain.m, chain.n, chain.k, chain.l),
            TransferSeed(schedule=plan.schedule, tile=plan.tile, geometry=plan.geometry),
        )

    def _compile_uncached(
        self,
        chain: GemmChainSpec,
        config: FuserConfig,
        device: HardwareSpec,
        transfer_seed: Optional[TransferSeed] = None,
    ) -> CompiledKernel:
        engine = self._engine_for(config, device)
        # Positional-free dispatch keeps custom/stubbed engines without a
        # transfer_seed parameter working when transfer is off.
        if transfer_seed is not None:
            search = engine.search(chain, transfer_seed=transfer_seed)
        else:
            search = engine.search(chain)
        if not search.succeeded:
            raise FusionError(
                f"no feasible fused plan found for {chain.name}; the chain's "
                "intermediate exceeds every on-chip placement the search explored"
            )
        best = search.best
        assert best is not None
        simulator, _ = self._toolchain(device)
        report = simulator.simulate_plan(best.result)
        plan = ExecutionPlan.from_dataflow(
            best.result,
            predicted_cost_us=best.predicted_cost_us,
            simulated_time_us=report.time_us,
        )
        kernel_ir = lower_plan(plan)
        source = emit_cuda(plan, kernel_ir)
        traffic = self.profiler.profile_fused(best.result)
        return CompiledKernel(
            plan=plan,
            kernel_ir=kernel_ir,
            source=source,
            report=report,
            search=search,
            traffic=traffic,
        )

    def _device_key(self, device: HardwareSpec) -> str:
        """Stable memoization key for a device.

        Fingerprint-based (not ``id()``-based) so per-request overrides that
        pass fresh-but-identical spec objects reuse the existing toolchain
        and engines instead of accumulating one entry per request.
        """
        if device is self.device:
            return _DEFAULT_DEVICE_KEY
        return json.dumps(device.fingerprint(), sort_keys=True)

    def _toolchain(
        self, device: HardwareSpec
    ) -> Tuple[PerformanceSimulator, CostModel]:
        """The (memoized) simulator and cost model for a device."""
        key = self._device_key(device)
        with self._engines_lock:
            toolchain = self._toolchains.get(key)
            if toolchain is None:
                toolchain = (PerformanceSimulator(device), CostModel(device))
                self._toolchains[key] = toolchain
            return toolchain

    def _engine_for(self, config: FuserConfig, device: HardwareSpec):
        """The (memoized) search engine for an effective configuration."""
        key = (
            self._device_key(device),
            config.top_k,
            config.include_dsm,
            config.max_tile,
        )
        with self._engines_lock:
            engine = self._engines.get(key)
            if engine is None:
                engine = self._make_engine(config, device)
                self._engines[key] = engine
            return engine

    def _make_engine(self, config: FuserConfig, device: HardwareSpec):
        from repro.search.space import SearchSpace

        simulator, cost_model = self._toolchain(device)
        space = SearchSpace(
            device,
            max_tile=config.max_tile,
            include_clusters=config.include_dsm,
        )
        return SearchEngine(
            device,
            top_k=config.top_k,
            include_dsm=config.include_dsm,
            profiler=simulator.profile,
            space=space,
            cost_model=cost_model,
        )

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=min(8, os.cpu_count() or 1),
                    thread_name_prefix="flashfuser-submit",
                )
            return self._pool


@dataclass
class KernelTable:
    """Pre-compiled kernels binned by M for runtime lookup (Section IV-C3).

    N, K and L are fixed by the model, so only the token/batch dimension M
    varies at runtime: kernels are compiled offline for a set of M bins
    (:meth:`FlashFuser.compile_table`) and selected
    per request with :meth:`lookup` — the smallest bin covering the runtime
    M, falling back to the largest bin (run over multiple waves) above it.

    Example
    -------
    >>> from repro.ir.workloads import get_chain_spec
    >>> table = KernelTable(chain=get_chain_spec("G1"))
    >>> table.bins()            # empty until bins are compiled into it
    []
    >>> table.bin_for(0)
    Traceback (most recent call last):
        ...
    ValueError: m must be positive
    """

    chain: GemmChainSpec
    kernels: Dict[int, CompiledKernel] = field(default_factory=dict)

    def bins(self) -> List[int]:
        """The available M bins, ascending."""
        return sorted(self.kernels)

    def bin_for(self, m: int) -> int:
        """The M bin serving a runtime M: the smallest bin covering it.

        Runtime M values larger than every bin fall back to the largest
        compiled kernel (which then runs multiple waves).
        """
        if m <= 0:
            raise ValueError("m must be positive")
        bins = self.bins()
        if not bins:
            raise KeyError("kernel table is empty")
        index = bisect.bisect_left(bins, m)
        return bins[min(index, len(bins) - 1)]

    def lookup(self, m: int) -> CompiledKernel:
        """Select the kernel for a runtime M via :meth:`bin_for`."""
        return self.kernels[self.bin_for(m)]


def _settle(resolve, *args):
    """``resolve(*args)`` (a :class:`CompileResponse`), or its
    :class:`FusionError`."""
    try:
        return resolve(*args)
    except FusionError as exc:
        return exc


def compile_chain(
    chain: GemmChainSpec,
    config: Optional[FuserConfig] = None,
    **overrides: object,
) -> CompiledKernel:
    """One-shot convenience wrapper around :class:`FlashFuser`.

    Builds a throwaway compiler from ``config`` plus ``overrides``, compiles
    ``chain``, and returns the :class:`CompiledKernel`.  The compiler is
    used as a context manager so the submit pool it may spin up is
    released even when compilation raises.  For more than one compile,
    construct a :class:`FlashFuser` once and reuse it — engines and caches
    are memoized per instance.

    Example
    -------
    ::

        from repro import compile_chain
        from repro.ir.workloads import get_chain_spec

        kernel = compile_chain(get_chain_spec("G1"), top_k=5, max_tile=128)
        print(kernel.time_us)
    """
    with FlashFuser(config, **overrides) as compiler:
        return compiler.compile(chain)
