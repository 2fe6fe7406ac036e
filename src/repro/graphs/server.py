"""Model-level serving over the kernel-serving frontend.

:class:`ModelServer` is the thin model layer above
:class:`~repro.runtime.server.KernelServer`: models register an operator
graph, a graph *factory* parameterised by the batched token count M, or a
transformer config, and every serve request resolves the model's extracted
chains through the existing table -> cache -> compile path, charges the
residual operators on the simulator, and answers with the assembled
:class:`~repro.graphs.plan.ModelPlan` plus per-segment resolution sources.
A config's layer graph is built, rewritten and extracted only on its first
serve; every other M is bound into that extraction (:class:`_RowTemplate`).

Model-level metrics land in a dedicated
:class:`~repro.runtime.stats.ServingStats`: each serve is recorded under the
model's name with the *most expensive* source any of its chains needed
(``compiled`` > ``compiled:transfer`` > ``cache:disk`` > ``cache:memory`` >
``table``), while the underlying :class:`KernelServer` keeps its own
per-chain stats.
"""

from __future__ import annotations

import contextvars
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

from repro.analysis.locks import make_lock, require_held
from repro.errors import FusionError

from repro.api import CompiledKernel, CompileRequest
from repro.graphs.extract import ChainMatch, ExtractionResult, extract_chains
from repro.graphs.plan import (
    SOURCE_SIMULATED,
    ModelPlan,
    _price_unfused,
    _UnfusedPricing,
    assemble_plan,
)
from repro.ir.graph import OperatorGraph
from repro.ir.tensor import TensorSpec
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

#: One memoised (model, m): the extraction and its unfused pricing on the
#: server's residual simulator.
_Memoized = Tuple[ExtractionResult, _UnfusedPricing]


#: The fields of one chain or operator that read M: an integer field (no
#: positions) or a tensor field with the shape positions that read M.
_Rows = Tuple[Tuple[str, Optional[Tuple[int, ...]]], ...]

_T = TypeVar("_T")


@dataclass(frozen=True)
class _RowTemplate:
    """A model's extraction with the dimensions that equal M marked.

    A transformer layer's topology, operator names and rewrite firings do
    not depend on the batched token count M; only its row dimension does.
    The template keeps one extraction plus the fields of each match's chain
    and each residual operator that read M, so :meth:`bind` serves a new M
    without building, rewriting or matching a graph.
    """

    extraction: ExtractionResult
    chain_rows: Tuple[_Rows, ...]
    residual_rows: Tuple[_Rows, ...]

    @classmethod
    def derive(
        cls, first: ExtractionResult, m: int, probe: ExtractionResult, probe_m: int
    ) -> "_RowTemplate":
        """The template of two extractions of one graph builder at distinct
        sizes ``m`` and ``probe_m``.

        A dimension binds to M when it reads ``m`` in ``first`` and
        ``probe_m`` in ``probe``.  Binding both sizes must then reproduce
        both extractions exactly; any other difference (a dimension that
        changes some other way, a renamed operator, a moved anchor, other
        rewrite firings) means the builder is not row-polymorphic, and
        raises.
        """
        rows = (m, probe_m)
        template = cls(
            first,
            tuple(
                _row_fields(a.chain, b.chain, rows)
                for a, b in zip(first.matches, probe.matches)
            ),
            tuple(
                _row_fields(a, b, rows)
                for a, b in zip(first.residual, probe.residual)
            ),
        )
        if template.bind(m) != first or template.bind(probe_m) != probe:
            raise FusionError(
                f"graph {first.graph_name!r} is not row-polymorphic: its "
                f"extraction at M={probe_m} is not its extraction at M={m} "
                "with M substituted"
            )
        return template

    def bind(self, m: int) -> ExtractionResult:
        """The extraction at batched token count ``m``."""
        base = self.extraction
        return ExtractionResult(
            graph_name=base.graph_name,
            matches=[
                ChainMatch(
                    chain=_bind_rows(match.chain, rows, m),
                    operator_names=match.operator_names,
                    anchor=match.anchor,
                )
                for match, rows in zip(base.matches, self.chain_rows)
            ],
            residual=[
                _bind_rows(op, rows, m)
                for op, rows in zip(base.residual, self.residual_rows)
            ],
            topological_names=base.topological_names,
            rewrite=base.rewrite,
        )


def _row_fields(a: object, b: object, rows: Tuple[int, int]) -> _Rows:
    """The fields of dataclass ``a`` that read ``rows`` across ``a`` and
    ``b`` (nothing when the two are of different types)."""
    if type(a) is not type(b):
        return ()
    found: List[Tuple[str, Optional[Tuple[int, ...]]]] = []
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, TensorSpec):
            positions = tuple(
                index
                for index, sizes in enumerate(zip(x.shape, y.shape))
                if sizes == rows
            )
            if positions:
                found.append((field.name, positions))
        elif (x, y) == rows:
            found.append((field.name, None))
    return tuple(found)


def _bind_rows(value: _T, rows: _Rows, m: int) -> _T:
    """``value`` with ``m`` substituted into the fields ``rows`` names."""
    if not rows:
        return value
    updates = {}
    for name, positions in rows:
        if positions is None:
            updates[name] = m
        else:
            tensor = getattr(value, name)
            shape = list(tensor.shape)
            for index in positions:
                shape[index] = m
            updates[name] = tensor.with_shape(tuple(shape))
    return replace(value, **updates)


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
        """The extraction's rewrite provenance."""
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
            server.register("bert", "BERT")        # zoo name -> bound per M
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
        # Models registered as a ModelConfig are served by binding M into a
        # per-model template, built on the model's first serve (None until
        # then); factories the server cannot see inside are rebuilt per M.
        self._templates: Dict[str, Optional[_RowTemplate]] = {}
        # LRU-bounded (model, m) -> (extraction, pricing) memo:
        # dynamic-M traffic must not grow server state without bound (the
        # backing kernel tables are bounded by binning for the same reason).
        # The pricing is everything in a plan that does not depend on how
        # the chains resolve, so a memo hit only resolves the chains.  The
        # registry and memo share a lock because the backing request path is
        # built for concurrent serving threads.
        self._extractions: "OrderedDict[Tuple[str, int], _Memoized]" = OrderedDict()
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
        model-zoo name.  A callable is called, and its graph rewritten and
        extracted, for every M the extraction memo misses.  A config (or
        zoo name) is served by binding M: its transformer layer graph is
        extracted at the first served M and one more, which fixes which
        dimensions are M, and every later M substitutes into that template.
        Fixed graphs are validated here, so a malformed graph fails at
        registration; built graphs are validated when first extracted.
        """
        if isinstance(model, str):
            model = get_model(model)
        with self._lock:
            self._templates.pop(name, None)
            if isinstance(model, ModelConfig):
                config = model
                self._factories[name] = lambda m: config.layer_graph(seq_len=m)
                self._templates[name] = None
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
            extraction, pricing, effective_m = self._materialize(name, m)
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

            plan = assemble_plan(
                extraction.graph_name,
                extraction,
                resolve,
                self.simulator,
                pricing=pricing,
            )
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
            "models": self.stats.to_dict(),
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
    ) -> Tuple[ExtractionResult, _UnfusedPricing, int]:
        # Extraction is pattern matching over a small DAG and pricing is a
        # few simulator calls (microseconds against a cold serve's search),
        # so building under the lock is cheaper than racing duplicate builds.
        with self._lock:
            if name not in self._factories:
                raise KeyError(f"unknown model {name!r}; register() it first")
            factory = self._factories[name]
            if factory is None:
                if m is not None:
                    raise ValueError(
                        f"model {name!r} was registered as a fixed graph; "
                        "register a graph factory (m -> OperatorGraph) to "
                        "serve variable M"
                    )
                graph = self._static_graphs[name]
                extraction, pricing = self._memoized(
                    (name, 0),
                    lambda: extract_chains(graph, validate=False, rewrite=True),
                )
                effective_m = (
                    extraction.matches[0].chain.m if extraction.matches else 0
                )
                return extraction, pricing, effective_m
            if m is None or m <= 0:
                raise ValueError("serve(name, m) requires a positive token count m")
            extraction, pricing = self._memoized(
                (name, m), lambda: self._extract(name, factory, m)
            )
            return extraction, pricing, m

    def _extract(self, name: str, factory: GraphFactory, m: int) -> ExtractionResult:
        """``name``'s extraction at ``m``: a factory's graph is built and
        extracted; a config's is bound from its template, which extractions
        at ``m`` and ``m + 1`` build on the model's first serve.  Callers
        hold the server lock, which guards the template map."""
        require_held(self._lock)
        if name not in self._templates:
            return extract_chains(factory(m), rewrite=True)
        template = self._templates[name]
        if template is not None:
            return template.bind(m)
        first = extract_chains(factory(m), rewrite=True)
        probe = extract_chains(factory(m + 1), rewrite=True)
        self._templates[name] = _RowTemplate.derive(first, m, probe, m + 1)
        return first

    def _memoized(
        self, key: Tuple[str, int], build: Callable[[], ExtractionResult]
    ) -> _Memoized:
        # Callers hold the server lock; checked when the lock-order detector
        # is active (see repro.analysis.locks).
        require_held(self._lock)
        cached = self._extractions.get(key)
        if cached is None:
            extraction = build()
            cached = (extraction, _price_unfused(extraction, self.simulator))
            self._extractions[key] = cached
            while len(self._extractions) > _EXTRACTION_MEMO_CAPACITY:
                self._extractions.popitem(last=False)
        else:
            self._extractions.move_to_end(key)
        return cached
