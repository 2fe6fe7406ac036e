"""Model plans: whole-graph compilation through the chain compiler.

:func:`compile_graph` is the graph compiler's scheduler.  It extracts the
fusible chains of an :class:`~repro.ir.graph.OperatorGraph`
(:func:`~repro.graphs.extract.extract_chains`), compiles every chain
concurrently through the existing :class:`~repro.api.FlashFuser` stack —
:meth:`~repro.api.FlashFuser.compile_chains` runs one search per distinct
shape on the compiler's worker pool, and an attached plan cache serves
shapes compiled before without re-running the search — charges the
residual (unfused) operators on the performance simulator at library kernel
quality, and assembles a topologically ordered :class:`ModelPlan` whose
segments carry full provenance: fused vs unfused, resolution source, cache
hit or miss, and simulated time.

A chain the search cannot fuse (its intermediate exceeds every on-chip
placement, e.g. the C4 conv chain) degrades gracefully: the region is
charged as its unfused kernel sequence and marked ``SOURCE_UNFUSABLE``
instead of failing the whole model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from repro.api import CompiledKernel, FlashFuser
from repro.baselines.base import unfused_launches
from repro.config import FuserConfig
from repro.errors import FusionError
from repro.graphs.extract import ChainMatch, ExtractionResult, extract_chains
from repro.ir.graph import GemmChainSpec, OperatorGraph
from repro.ir.ops import Operator
from repro.sim.engine import KernelLaunch, PerformanceSimulator

#: Segment kinds.
KIND_FUSED = "fused"
KIND_UNFUSED = "unfused"

#: Resolution sources recorded on segments.
SOURCE_SEARCH = "search"
SOURCE_CACHE = "cache"
SOURCE_UNFUSABLE = "unfusable"
SOURCE_SIMULATED = "simulated"


@dataclass(frozen=True)
class PlanSegment:
    """One schedulable unit of a compiled model plan.

    Either a fused chain kernel or a run of unfused operators, carrying its
    full provenance: how it was resolved, whether the plan cache served it,
    and its fused-vs-unfused simulated times.  Segments are immutable: a
    serving frontend shares one priced residual segment across every plan
    it assembles for the same extraction.

    Example
    -------
    ::

        from repro import compile_graph
        from repro.ir.workloads import get_model

        plan = compile_graph(get_model("BERT").layer_graph(seq_len=128))
        for segment in plan.segments:
            print(segment.name, segment.kind, segment.source, segment.time_us)
    """

    name: str
    kind: str
    #: Operator names the segment covers, in topological order.
    operators: Tuple[str, ...]
    #: Simulated execution time of the segment as planned.
    time_us: float
    #: Simulated time of the same operators executed fully unfused (the
    #: baseline side of the fused-vs-unfused comparison).
    unfused_time_us: float
    #: How the segment was resolved: ``search``/``cache`` (or a serving
    #: source like ``table``/``cache:memory``) for fused segments,
    #: ``unfusable`` for chains the search rejected, ``simulated`` for
    #: residual operators.
    source: str
    #: Topological position of the segment's first operator.
    anchor: int
    chain: Optional[GemmChainSpec] = None
    cache_hit: bool = False
    kernel: Optional[CompiledKernel] = field(default=None, repr=False)

    @property
    def fused(self) -> bool:
        """Whether the segment runs as one fused kernel."""
        return self.kind == KIND_FUSED

    def to_row(self) -> Dict[str, object]:
        """Flat view for tables and logs."""
        return {
            "segment": self.name,
            "kind": self.kind,
            "operators": len(self.operators),
            "source": self.source,
            "cache_hit": self.cache_hit,
            "time_us": round(self.time_us, 2),
            "unfused_us": round(self.unfused_time_us, 2),
        }


@dataclass
class ModelPlan:
    """A topologically ordered execution plan for one model graph.

    The output of :func:`compile_graph`: every :class:`PlanSegment` in
    schedule order plus the extraction it was assembled from, with
    aggregate timings (:attr:`time_us`, :meth:`speedup_vs_unfused`) and
    provenance (:attr:`cache_hits`, :meth:`rows`, :meth:`summary`).

    Example
    -------
    ::

        from repro import compile_graph
        from repro.ir.workloads import get_model

        plan = compile_graph(get_model("BERT").layer_graph(seq_len=128))
        print(plan.summary()["speedup_vs_unfused"])
        print(plan.rows())                      # per-segment provenance
    """

    graph_name: str
    segments: List[PlanSegment]
    extraction: ExtractionResult

    # ------------------------------------------------------------------ #
    # Timings
    # ------------------------------------------------------------------ #
    @property
    def time_us(self) -> float:
        """Simulated model time under this plan."""
        return sum(segment.time_us for segment in self.segments)

    @property
    def fused_time_us(self) -> float:
        """Time spent in fused chain kernels."""
        return sum(s.time_us for s in self.segments if s.fused)

    @property
    def residual_time_us(self) -> float:
        """Time spent in unfused (residual or unfusable) kernels."""
        return sum(s.time_us for s in self.segments if not s.fused)

    @property
    def unfused_time_us(self) -> float:
        """Simulated model time with every operator executed unfused."""
        return sum(segment.unfused_time_us for segment in self.segments)

    def speedup_vs_unfused(self) -> float:
        """Whole-model speedup of this plan over fully unfused execution."""
        return self.unfused_time_us / self.time_us if self.time_us > 0 else 0.0

    # ------------------------------------------------------------------ #
    # Provenance
    # ------------------------------------------------------------------ #
    @property
    def fused_segments(self) -> List[PlanSegment]:
        """The segments served by fused kernels."""
        return [s for s in self.segments if s.fused]

    @property
    def cache_hits(self) -> int:
        """Fused segments served by the plan cache instead of a search."""
        return sum(1 for s in self.segments if s.cache_hit)

    def rows(self) -> List[Dict[str, object]]:
        """Per-segment provenance rows, in schedule order."""
        return [segment.to_row() for segment in self.segments]

    def summary(self) -> Dict[str, object]:
        """Model-level provenance and timing summary.

        The ``rewrite`` entry carries the canonicalization provenance when
        the plan was compiled with the rewrite stage enabled (``None`` for a
        direct extraction), so "which rules shaped this plan" survives into
        every report built from summaries.
        """
        rewrite = self.extraction.rewrite
        return {
            "graph": self.graph_name,
            "rewrite": None if rewrite is None else rewrite.to_dict(),
            "segments": len(self.segments),
            "fused_chains": len(self.fused_segments),
            "residual_ops": sum(
                len(s.operators) for s in self.segments if not s.fused
            ),
            "cache_hits": self.cache_hits,
            "flops_coverage": round(self.extraction.flops_coverage(), 3),
            "time_us": round(self.time_us, 2),
            "unfused_time_us": round(self.unfused_time_us, 2),
            "speedup_vs_unfused": round(self.speedup_vs_unfused(), 3),
        }


class ChainResolver(Protocol):
    """How fused chains get their kernels (compiler or serving frontend)."""

    def __call__(
        self, match: ChainMatch
    ) -> Tuple[CompiledKernel, str, bool, float]:
        """Return (kernel, source, cache_hit, charged time in us).

        The charged time is usually ``kernel.time_us``; the serving path
        charges multiple kernel waves when the runtime M exceeds the
        largest compiled bin.  Raise FusionError when the chain is
        unfusable.
        """
        ...


@dataclass(frozen=True)
class _UnfusedPricing:
    """The resolver-independent part of a plan for one extraction.

    Each match's unfused-baseline time (in ``extraction.matches`` order) and
    the priced residual segments (in ``extraction.residual`` order).  Both
    depend only on the extraction and the simulator, so a server that
    memoises the extraction prices them once.
    """

    unfused_us: Tuple[float, ...]
    residual: Tuple[PlanSegment, ...]


def _price_unfused(
    extraction: ExtractionResult, simulator: PerformanceSimulator
) -> _UnfusedPricing:
    """Charge every match's unfused baseline and every residual operator."""
    unfused_us = tuple(
        simulator.simulate_kernels(unfused_launches(match.chain)).time_us
        for match in extraction.matches
    )
    index_of = {
        name: position for position, name in enumerate(extraction.topological_names)
    }
    residual = []
    for op in extraction.residual:
        time_us = simulator.simulate_kernels([_launch_for(op)]).time_us
        residual.append(
            PlanSegment(
                name=op.name,
                kind=KIND_UNFUSED,
                operators=(op.name,),
                time_us=time_us,
                unfused_time_us=time_us,
                source=SOURCE_SIMULATED,
                anchor=index_of[op.name],
            )
        )
    return _UnfusedPricing(unfused_us=unfused_us, residual=tuple(residual))


def assemble_plan(
    graph_name: str,
    extraction: ExtractionResult,
    resolver: ChainResolver,
    simulator: PerformanceSimulator,
    *,
    pricing: Optional[_UnfusedPricing] = None,
) -> ModelPlan:
    """Build a :class:`ModelPlan` from an extraction and a chain resolver.

    Shared by :func:`compile_graph` (chains resolved by the compiler) and
    :class:`~repro.graphs.server.ModelServer` (chains resolved through the
    serving table -> cache -> compile path); both produce identically
    structured plans, differing only in each fused segment's source.
    ``pricing`` is the extraction's unfused baselines and residual segments
    on ``simulator``, priced here when omitted; the model server passes the
    copy it memoised with the extraction.
    """
    if pricing is None:
        pricing = _price_unfused(extraction, simulator)
    segments: List[PlanSegment] = []
    for match, unfused_us in zip(
        extraction.matches, pricing.unfused_us, strict=True
    ):
        try:
            kernel, source, cache_hit, time_us = resolver(match)
        except FusionError:
            segments.append(
                PlanSegment(
                    name=match.chain.name,
                    kind=KIND_UNFUSED,
                    operators=match.operator_names,
                    time_us=unfused_us,
                    unfused_time_us=unfused_us,
                    source=SOURCE_UNFUSABLE,
                    anchor=match.anchor,
                    chain=match.chain,
                )
            )
            continue
        segments.append(
            PlanSegment(
                name=match.chain.name,
                kind=KIND_FUSED,
                operators=match.operator_names,
                time_us=time_us,
                unfused_time_us=unfused_us,
                source=source,
                anchor=match.anchor,
                chain=match.chain,
                cache_hit=cache_hit,
                kernel=kernel,
            )
        )
    segments.extend(pricing.residual)
    segments.sort(key=lambda segment: segment.anchor)
    return ModelPlan(graph_name=graph_name, segments=segments, extraction=extraction)


def compile_graph(
    graph: OperatorGraph,
    compiler: Optional[FlashFuser] = None,
    *,
    config: Optional[FuserConfig] = None,
    simulator: Optional[PerformanceSimulator] = None,
    validate: bool = True,
    **overrides: object,
) -> ModelPlan:
    """Compile a whole model graph into a :class:`ModelPlan`.

    Parameters
    ----------
    graph:
        The model graph (validated first unless ``validate=False``).
    compiler:
        The :class:`~repro.api.FlashFuser` compiling the extracted chains.
        When omitted, a throwaway compiler is built from ``config`` and the
        ``overrides`` and closed before returning; with ``compiler`` given,
        ``config``/``overrides`` must not be.
    simulator:
        Charges the residual operators and the unfused baselines; defaults
        to library-grade kernel quality on the compiler's device
        (:meth:`~repro.sim.engine.PerformanceSimulator.library_grade`), since
        residual operators run as framework kernels.

    Extracted chains resolve through :meth:`FlashFuser.compile_chains`,
    so multi-chain graphs compile distinct chains concurrently and
    identically shaped chains (e.g. every layer's FFN) only once, each
    request consulting the compiler's plan cache with exactly the key that
    compiling the same :class:`~repro.ir.graph.GemmChainSpec` directly
    would use.

    Example
    -------
    ::

        from repro import FlashFuser, PlanCache, compile_graph
        from repro.ir.workloads import get_model

        graph = get_model("BERT").layer_graph(seq_len=128)
        with FlashFuser(cache=PlanCache(directory="~/.cache/ff")) as compiler:
            plan = compile_graph(graph, compiler=compiler)
        print(plan.summary())       # fused chains, cache hits, speedup
    """
    if compiler is not None and (config is not None or overrides):
        raise ValueError("pass either compiler= or config=/overrides, not both")
    owns_compiler = compiler is None
    if owns_compiler:
        compiler = FlashFuser(config, **overrides)
    try:
        extraction = extract_chains(graph, validate=validate, rewrite=True)
        simulator = simulator or PerformanceSimulator.library_grade(compiler.device)
        # Every chain settles before assembly, so all of them compile to
        # completion even when one fails.
        outcomes = compiler.compile_chains(
            [match.chain for match in extraction.matches]
        )
        settled = {
            id(match): outcome
            for match, outcome in zip(extraction.matches, outcomes)
        }

        def resolve(match: ChainMatch) -> Tuple[CompiledKernel, str, bool, float]:
            outcome = settled[id(match)]
            if isinstance(outcome, FusionError):
                raise outcome
            source = SOURCE_CACHE if outcome.cache_hit else SOURCE_SEARCH
            return outcome.kernel, source, outcome.cache_hit, outcome.kernel.time_us

        return assemble_plan(graph.name, extraction, resolve, simulator)
    finally:
        if owns_compiler:
            compiler.close()


def _launch_for(op: Operator) -> KernelLaunch:
    """A residual operator as one unfused kernel launch."""
    return KernelLaunch(op.name, op.flops(), op.io_bytes())
