"""Model-level serving over the kernel-serving frontend.

:class:`ModelServer` is the thin model layer above
:class:`~repro.runtime.server.KernelServer`: models register an operator
graph (or a graph *factory* parameterised by the batched token count M), and
every serve request resolves the model's extracted chains through the
existing table -> cache -> compile path, charges the residual operators on
the simulator, and answers with the assembled
:class:`~repro.graphs.plan.ModelPlan` plus per-segment resolution sources.

Model-level metrics land in a dedicated
:class:`~repro.runtime.stats.ServingStats`: each serve is recorded under the
model's name with the *most expensive* source any of its chains needed
(``compiled`` > ``compiled:transfer`` > ``cache:disk`` > ``cache:memory`` >
``table``), while the underlying :class:`KernelServer` keeps its own
per-chain stats.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.locks import make_lock
from repro.errors import FusionError

from repro.api import CompiledKernel, CompileRequest
from repro.graphs.extract import ChainMatch, ExtractionResult, extract_chains
from repro.graphs.plan import SOURCE_SIMULATED, ModelPlan, assemble_plan
from repro.ir.graph import OperatorGraph
from repro.ir.workloads import ModelConfig, get_model
from repro.obs.trace import tracer
from repro.runtime.server import (
    SOURCE_CACHE_DISK,
    SOURCE_CACHE_MEMORY,
    SOURCE_COMPILED,
    SOURCE_TABLE,
    SOURCE_TRANSFER,
    KernelServer,
)
from repro.runtime.stats import ServingStats
from repro.sim.engine import PerformanceSimulator

#: A registered model: either a fixed graph or a factory building the graph
#: for a requested batched token count M.
GraphFactory = Callable[[int], OperatorGraph]

#: Source ranking used to summarise a multi-chain serve as one source.  A
#: transfer-warmed compile still runs a (bounded) search, so it outranks
#: every hit tier but stays cheaper than a full exact compile.
_SOURCE_COST = {
    SOURCE_TABLE: 0,
    SOURCE_CACHE_MEMORY: 1,
    SOURCE_CACHE_DISK: 2,
    SOURCE_TRANSFER: 3,
    SOURCE_COMPILED: 4,
}

#: Distinct (model, m) extraction results kept in the serve-path memo.
_EXTRACTION_MEMO_CAPACITY = 64


@dataclass
class ModelServeResponse:
    """One served model request."""

    model: str
    m: int
    plan: ModelPlan
    #: Resolution source per fused segment name.
    sources: Dict[str, str]
    #: The most expensive source any chain needed (``simulated`` when the
    #: model has no fusible chains).
    source: str
    #: Wall-clock time spent serving this request.
    latency_us: float
    #: Search-effort counters summed over every chain that ran a fusion
    #: search this serve (``None`` when all chains were hits).
    search_counters: Optional[Dict[str, int]] = None
    #: Per-phase search wall clock summed over every chain that ran a
    #: fusion search this serve (``None`` when all chains were hits).
    phase_times_us: Optional[Dict[str, float]] = None

    @property
    def time_us(self) -> float:
        """Simulated model execution time under the served plan."""
        return self.plan.time_us

    @property
    def rewrite_provenance(self):
        """The extraction's rewrite provenance (``None`` when rewrite is off)."""
        return self.plan.extraction.rewrite

    @property
    def speedup_vs_unfused(self) -> float:
        """Model speedup over fully unfused execution."""
        return self.plan.speedup_vs_unfused()


class ModelServer:
    """Serve whole model graphs through the kernel-serving stack.

    Parameters
    ----------
    server:
        The backing :class:`KernelServer`.  When omitted, one is built from
        the remaining keyword arguments (``cache=``, ``config=``, ...),
        which must not be combined with an explicit ``server``.
    residual_simulator:
        Charges residual operators; defaults to library-grade kernel quality
        on the backing compiler's device.
    stats:
        Model-level metrics sink (a fresh :class:`ServingStats` by default).

    Example
    -------
    ::

        from repro import ModelServer

        with ModelServer(cache="~/.cache/ff") as server:
            server.register("bert", "BERT")        # zoo name -> layer factory
            response = server.serve("bert", m=128) # cold: fusion search
            again = server.serve("bert", m=96)     # warm: kernel-table hit
        print(response.source, again.source)       # 'compiled' 'table'
        print(server.snapshot()["models"]["hit_rate"])
    """

    def __init__(
        self,
        server: Optional[KernelServer] = None,
        *,
        residual_simulator: Optional[PerformanceSimulator] = None,
        stats: Optional[ServingStats] = None,
        **server_kwargs: object,
    ) -> None:
        if server is not None and server_kwargs:
            raise ValueError("pass either server= or KernelServer kwargs, not both")
        self.server = server if server is not None else KernelServer(**server_kwargs)
        self.simulator = residual_simulator or PerformanceSimulator.library_grade(
            self.server.compiler.device
        )
        self.stats = stats or ServingStats()
        self._factories: Dict[str, Optional[GraphFactory]] = {}
        self._static_graphs: Dict[str, OperatorGraph] = {}
        # LRU-bounded (model, m) -> (graph, extraction) memo: dynamic-M
        # traffic must not grow server state without bound (the backing
        # kernel tables are bounded by binning for the same reason).  The
        # registry and memo share a lock because the backing request path is
        # built for concurrent serving threads.
        self._extractions: "OrderedDict[Tuple[str, int], Tuple[OperatorGraph, ExtractionResult]]" = OrderedDict()
        self._lock = make_lock("model-server", reentrant=True)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        model: Union[OperatorGraph, GraphFactory, ModelConfig, str],
    ) -> None:
        """Register a model under ``name``.

        ``model`` may be a fixed :class:`OperatorGraph` (servable only at
        its built shape), a callable ``m -> OperatorGraph`` building the
        graph for any batched token count, a :class:`ModelConfig`, or a
        model-zoo name — the latter two register the config's transformer
        layer graph as a factory.  Fixed graphs are validated here, so a
        malformed graph fails at registration; factory-built graphs are
        validated when first materialised for a serve.
        """
        if isinstance(model, str):
            model = get_model(model)
        with self._lock:
            if isinstance(model, ModelConfig):
                config = model
                self._factories[name] = lambda m: config.layer_graph(seq_len=m)
            elif isinstance(model, OperatorGraph):
                model.validate()
                self._factories[name] = None
                self._static_graphs[name] = model
            elif callable(model):
                self._factories[name] = model
            else:
                raise TypeError(
                    f"cannot register a {type(model).__name__} as a model"
                )
            for key in [k for k in self._extractions if k[0] == name]:
                del self._extractions[key]

    def models(self) -> List[str]:
        """Registered model names, in registration order."""
        with self._lock:
            return list(self._factories)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(self, name: str, m: Optional[int] = None) -> ModelServeResponse:
        """Serve one model at batched token count ``m``.

        Every extracted chain resolves through the backing server's
        table -> cache -> compile path, concurrently when the model has
        several chains; residual operators are charged on the simulator.
        Chains are quantised to the server's M bins — a runtime M above the
        largest bin reuses the largest compiled kernel across
        ``ceil(M / bin)`` waves, which is what the plan charges.  For models
        registered as fixed graphs ``m`` must be omitted — register a
        factory to serve variable shapes.
        """
        start = time.perf_counter()
        with tracer().span("model.serve", model=name, m=m) as span:
            graph, extraction, effective_m = self._materialize(name, m)
            settled = self._resolve_all(extraction.matches)
            sources: Dict[str, str] = {
                chain_name: outcome[1]
                for chain_name, outcome in settled.items()
                if not isinstance(outcome, FusionError)
            }
            search_counters: Optional[Dict[str, int]] = None
            phase_times_us: Optional[Dict[str, float]] = None
            for outcome in settled.values():
                if isinstance(outcome, FusionError):
                    continue
                if outcome[4] is not None:
                    if search_counters is None:
                        search_counters = dict.fromkeys(outcome[4], 0)
                    for counter, value in outcome[4].items():
                        search_counters[counter] = (
                            search_counters.get(counter, 0) + value
                        )
                if outcome[5] is not None:
                    if phase_times_us is None:
                        phase_times_us = {}
                    for stage, micros in outcome[5].items():
                        phase_times_us[stage] = (
                            phase_times_us.get(stage, 0.0) + micros
                        )

            def resolve(
                match: ChainMatch,
            ) -> Tuple[CompiledKernel, str, bool, float]:
                outcome = settled[match.chain.name]
                if isinstance(outcome, FusionError):
                    raise outcome
                kernel, source, cache_hit, charged_us = outcome[:4]
                return kernel, source, cache_hit, charged_us

            plan = assemble_plan(graph.name, extraction, resolve, self.simulator)
            source = max(
                (value for value in sources.values()),
                key=lambda value: _SOURCE_COST.get(value, 0),
                default=SOURCE_SIMULATED,
            )
            latency_us = (time.perf_counter() - start) * 1e6
            self.stats.record_request(name, source, latency_us)
            span.set("source", source)
            return ModelServeResponse(
                model=name,
                m=effective_m,
                plan=plan,
                sources=sources,
                source=source,
                latency_us=latency_us,
                search_counters=search_counters,
                phase_times_us=phase_times_us,
            )

    def snapshot(self) -> Dict[str, object]:
        """Model-level metrics plus the backing kernel server's snapshot."""
        return {
            "models": self.stats.snapshot(),
            "kernels": self.server.snapshot(),
        }

    def close(self) -> None:
        """Release the backing server's compiler pools (idempotent)."""
        self.server.close()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _resolve_all(
        self, matches: List[ChainMatch]
    ) -> Dict[
        str,
        Union[
            Tuple[
                CompiledKernel,
                str,
                bool,
                float,
                Optional[Dict[str, int]],
                Optional[Dict[str, float]],
            ],
            FusionError,
        ],
    ]:
        """Resolve every chain through the kernel server, fanning out when
        the model has several (the backing request path is thread-safe and
        deduplicates concurrent first requests per bin)."""
        if len(matches) <= 1:
            return {
                match.chain.name: self._settle(match) for match in matches
            }
        ctx = tracer().capture()

        def settle(match: ChainMatch):
            # Re-activate the serve's trace context on the pool thread so
            # each chain's resolution spans stitch under the model serve.
            with tracer().activate(ctx):
                return self._settle(match)

        with ThreadPoolExecutor(max_workers=min(8, len(matches))) as pool:
            # Each chain runs in a copy of the caller's context, so context
            # variables set around serve() reach the kernel server's hooks.
            futures = {
                match.chain.name: pool.submit(
                    contextvars.copy_context().run, settle, match
                )
                for match in matches
            }
            return {name: future.result() for name, future in futures.items()}

    def _settle(
        self, match: ChainMatch
    ) -> Union[
        Tuple[
            CompiledKernel,
            str,
            bool,
            float,
            Optional[Dict[str, int]],
            Optional[Dict[str, float]],
        ],
        FusionError,
    ]:
        """One chain's (kernel, source, cache_hit, charged time, search
        counters, phase times), or its FusionError (kept as a value so
        sibling chains still resolve)."""
        try:
            response = self.server.request(CompileRequest(chain=match.chain))
        except FusionError as exc:
            return exc
        # A runtime M above the largest compiled bin reuses that kernel
        # across multiple waves; charge them all, not just the first.
        waves = -(-match.chain.m // response.bin_m)
        # cache_hit keeps PlanSegment's plan-cache semantics: a kernel-table
        # hit resolved without the cache reports source="table", hit=False.
        cache_hit = response.source in (SOURCE_CACHE_MEMORY, SOURCE_CACHE_DISK)
        return (
            response.kernel,
            response.source,
            cache_hit,
            response.kernel.time_us * waves,
            getattr(response, "search_counters", None),
            getattr(response, "phase_times_us", None),
        )

    def _materialize(
        self, name: str, m: Optional[int]
    ) -> Tuple[OperatorGraph, ExtractionResult, int]:
        with self._lock:
            if name not in self._factories:
                raise KeyError(f"unknown model {name!r}; register() it first")
            factory = self._factories[name]
            static_graph = self._static_graphs.get(name)
        if factory is None:
            if m is not None:
                raise ValueError(
                    f"model {name!r} was registered as a fixed graph; register "
                    "a graph factory (m -> OperatorGraph) to serve variable M"
                )
            graph = static_graph
            extraction = self._extract_cached(name, 0, graph)
            effective_m = (
                extraction.matches[0].chain.m if extraction.matches else 0
            )
            return graph, extraction, effective_m
        if m is None or m <= 0:
            raise ValueError("serve(name, m) requires a positive token count m")
        graph, extraction = self._memoized_extraction(
            (name, m), lambda: self._build_and_extract(factory, m)
        )
        return graph, extraction, m

    def _build_and_extract(
        self, factory: GraphFactory, m: int
    ) -> Tuple[OperatorGraph, ExtractionResult]:
        graph = factory(m)
        return graph, extract_chains(graph, rewrite=self._rewrite_enabled())

    def _extract_cached(
        self, name: str, m: int, graph: OperatorGraph
    ) -> ExtractionResult:
        rewrite = self._rewrite_enabled()
        return self._memoized_extraction(
            (name, m),
            lambda: (graph, extract_chains(graph, validate=False, rewrite=rewrite)),
        )[1]

    def _rewrite_enabled(self) -> bool:
        # Plan-neutral knob (see PLAN_NEUTRAL_CONFIG_FIELDS): rewriting
        # changes which chains are extracted, never a chain's compiled plan.
        return self.server.compiler.config.rewrite

    def _memoized_extraction(
        self,
        key: Tuple[str, int],
        build: Callable[[], Tuple[OperatorGraph, ExtractionResult]],
    ) -> Tuple[OperatorGraph, ExtractionResult]:
        # Extraction is pattern matching over a small DAG (microseconds
        # against a cold serve's search), so building under the lock is
        # cheaper than racing duplicate builds.
        with self._lock:
            cached = self._extractions.get(key)
            if cached is None:
                cached = build()
                self._extractions[key] = cached
                while len(self._extractions) > _EXTRACTION_MEMO_CAPACITY:
                    self._extractions.popitem(last=False)
            else:
                self._extractions.move_to_end(key)
            return cached
