"""Fusion search algorithm (Algorithm 2).

The engine prunes the candidate space with Rules 1-5 (computed once per
chain as masks over the space's axes, :meth:`Pruner.cascade`), then runs
the array kernel :func:`score_cascade`: Algorithm 1 and the minimax cost
model over every surviving (schedule, geometry, tile) cell and gated mode
at once, as numpy arrays.  :func:`select_top_k` keeps the K cheapest rows
by ``(cost, enumeration index)``, and only those K become
:class:`FusionCandidate`/:class:`DataflowResult` objects.  Finally the
engine "profiles" the top-K candidates — on real hardware this is an
on-device measurement; in this reproduction it is the cycle-accurate-ish
performance simulator (or any callable the caller provides) — to select the
final execution plan.  The transfer search ranks its small neighbourhood
one candidate at a time instead (:func:`analyze_and_rank`), so it can skip
candidates by their lower bounds.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.analyzer import (
    CellAnalysis,
    DataflowAnalyzer,
    DataflowResult,
    SubchainAnalysis,
)
from repro.hardware.spec import HardwareSpec
from repro.obs import trace as obs_trace
from repro.obs.trace import tracer
from repro.search.cost_model import CostModel
from repro.search.pruning import CascadeResult, Pruner, PruningRule, PruningStats
from repro.search.space import FusionCandidate, SearchSpace
from repro.ir.graph import GemmChainSpec

#: A profiler maps an analysed candidate to a measured/simulated time in us.
ProfilerFn = Callable[[DataflowResult], float]


@dataclass
class RankedPlan:
    """One analysed candidate together with its predicted and profiled cost."""

    candidate: FusionCandidate
    result: DataflowResult
    predicted_cost_us: float
    profiled_time_us: Optional[float] = None

    @property
    def best_known_time_us(self) -> float:
        """Profiled time when available, predicted cost otherwise."""
        return (
            self.profiled_time_us
            if self.profiled_time_us is not None
            else self.predicted_cost_us
        )


@dataclass
class SearchResult:
    """Outcome of one fusion search.

    ``mode`` records how the plan was found: ``"exact"`` for a full
    enumeration, ``"transfer"`` for a warm-started local search around a
    nearest-shape seed (see :mod:`repro.search.incremental`).
    ``candidates_skipped`` counts the transfer search's candidates whose
    admissible lower bound already exceeded the running top-K threshold, so
    they were never analysed (always 0 for an exact search).
    """

    chain: GemmChainSpec
    best: Optional[RankedPlan]
    top_k: List[RankedPlan]
    pruning_stats: PruningStats
    candidates_enumerated: int
    candidates_analyzed: int
    search_time_s: float
    mode: str = "exact"
    candidates_skipped: int = 0
    #: Per-phase wall-clock attribution in microseconds
    #: (``enumerate_prune``/``analyze``/``rank``/``profile`` for exact
    #: searches, ``transfer`` for warm-started ones).
    phase_times_us: Optional[Dict[str, float]] = None

    @property
    def succeeded(self) -> bool:
        """Whether any feasible fused plan was found."""
        return self.best is not None

    def summary(self) -> "SearchSummary":
        """Compact, serializable summary of this search."""
        return SearchSummary.from_result(self)


@dataclass
class SearchSummary:
    """Serializable digest of one fusion search.

    The plan cache persists this instead of the full :class:`SearchResult`
    (whose ranked candidates hold analyzer state that is expensive to store
    and never needed again).  It exposes the fields downstream consumers
    read — :attr:`succeeded`, :attr:`search_time_s`,
    :attr:`candidates_analyzed` — so a cache-served kernel walks and talks
    like a freshly compiled one.
    """

    workload: str
    succeeded: bool
    candidates_enumerated: int
    candidates_analyzed: int
    search_time_s: float
    predicted_cost_us: Optional[float] = None
    profiled_time_us: Optional[float] = None
    #: ``True`` when this summary was served by the plan cache rather than
    #: produced by a live search.
    from_cache: bool = False
    #: ``"exact"`` or ``"transfer"`` — how the plan was found.
    mode: str = "exact"
    #: Transfer-search candidates skipped by the admissible lower bound.
    candidates_skipped: int = 0
    #: Per-phase wall-clock attribution in microseconds (``None`` for
    #: summaries persisted before phase attribution existed).
    phase_times_us: Optional[Dict[str, float]] = None

    @classmethod
    def from_result(cls, result: SearchResult) -> "SearchSummary":
        """Digest a full search result."""
        best = result.best
        return cls(
            workload=result.chain.name,
            succeeded=result.succeeded,
            candidates_enumerated=result.candidates_enumerated,
            candidates_analyzed=result.candidates_analyzed,
            search_time_s=result.search_time_s,
            predicted_cost_us=best.predicted_cost_us if best else None,
            profiled_time_us=best.profiled_time_us if best else None,
            mode=result.mode,
            candidates_skipped=result.candidates_skipped,
            phase_times_us=(
                dict(result.phase_times_us)
                if result.phase_times_us is not None
                else None
            ),
        )

    def to_dict(self) -> dict:
        """Serialize to plain JSON-compatible data."""
        return {
            "workload": self.workload,
            "succeeded": self.succeeded,
            "candidates_enumerated": self.candidates_enumerated,
            "candidates_analyzed": self.candidates_analyzed,
            "search_time_s": self.search_time_s,
            "predicted_cost_us": self.predicted_cost_us,
            "profiled_time_us": self.profiled_time_us,
            "mode": self.mode,
            "candidates_skipped": self.candidates_skipped,
            "phase_times_us": self.phase_times_us,
        }

    @classmethod
    def from_dict(cls, payload: dict, from_cache: bool = False) -> "SearchSummary":
        """Rebuild a summary from :meth:`to_dict` output.

        Summaries persisted before the transfer-search fields existed load
        with the defaults (``mode="exact"``, no skips, no phase
        attribution).
        """
        raw_phases = payload.get("phase_times_us")
        return cls(
            workload=str(payload["workload"]),
            succeeded=bool(payload["succeeded"]),
            candidates_enumerated=int(payload["candidates_enumerated"]),
            candidates_analyzed=int(payload["candidates_analyzed"]),
            search_time_s=float(payload["search_time_s"]),
            predicted_cost_us=payload.get("predicted_cost_us"),
            profiled_time_us=payload.get("profiled_time_us"),
            from_cache=from_cache,
            mode=str(payload.get("mode", "exact")),
            candidates_skipped=int(payload.get("candidates_skipped", 0)),
            phase_times_us=(
                {str(k): float(v) for k, v in dict(raw_phases).items()}
                if raw_phases is not None
                else None
            ),
        )


#: A candidate that passed the pruning cascade, with its enumeration index.
Survivor = Tuple[int, FusionCandidate]
#: ``(predicted cost, enumeration index, candidate, analysis)``.
ScoredPlan = Tuple[float, int, FusionCandidate, DataflowResult]


@dataclass
class CellScores:
    """A cascade's surviving cells, analysed and priced as arrays.

    ``analysis`` has one row per cell of ``cascade.cells``; the flat arrays
    have one row per (cell, gated mode) pair, in enumeration order — row
    ``r`` is cell ``r // len(gated_modes)`` in mode ``r % len(gated_modes)``.
    """

    cascade: CascadeResult
    analysis: CellAnalysis
    #: Enumeration index, feasibility and minimax cost (us) of each row.
    index: np.ndarray
    feasible: np.ndarray
    cost: np.ndarray
    #: Wall time of the array analysis and of the pricing.
    analyze_s: float
    price_s: float

    def __len__(self) -> int:
        return len(self.index)

    def plan(self, row: int, analyzer: DataflowAnalyzer) -> ScoredPlan:
        """Build the objects of one row (its analysis by the scalar path)."""
        parts = self.cascade.components
        modes = len(parts.gated_modes)
        s, g, t = self.cascade.cells[row // modes].tolist()
        candidate = FusionCandidate(
            chain=self.cascade.chain,
            schedule=parts.schedules[s],
            tile=parts.tiles[t],
            geometry=parts.geometries[g],
            gated_sequential=parts.gated_modes[row % modes],
        )
        result = analyzer.analyze(
            candidate.chain,
            candidate.schedule,
            candidate.tile,
            candidate.geometry,
            gated_sequential=candidate.gated_sequential,
        )
        return float(self.cost[row]), int(self.index[row]), candidate, result


def score_cascade(
    cascade: CascadeResult,
    analyzer: DataflowAnalyzer,
    cost_model: CostModel,
) -> CellScores:
    """Algorithm 1 and the minimax cost of every survivor, as arrays.

    The values are bit-identical to :meth:`DataflowAnalyzer.analyze` and
    :meth:`CostModel.evaluate` of each survivor.
    """
    parts = cascade.components
    start = time.perf_counter()
    analysis = analyzer.analyze_cells(
        cascade.chain,
        parts.schedules,
        parts.geometries,
        parts.tiles,
        cascade.cells,
        parts.gated_modes,
    )
    priced = time.perf_counter()
    cost = cost_model.evaluate_cells(cascade.chain, analysis).reshape(-1)
    return CellScores(
        cascade=cascade,
        analysis=analysis,
        index=cascade.indices(),
        feasible=np.repeat(analysis.feasible, len(parts.gated_modes)),
        cost=cost,
        analyze_s=priced - start,
        price_s=time.perf_counter() - priced,
    )


def select_top_k(
    cost: np.ndarray,
    index: np.ndarray,
    keep: int,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Positions of the ``keep`` smallest ``(cost, index)`` rows, best first.

    Rows outside ``mask`` are never kept.  Ties in cost go to the smaller
    enumeration index, so the selection does not depend on row order.
    """
    rows = np.arange(len(cost)) if mask is None else np.flatnonzero(mask)
    order = np.lexsort((index[rows], cost[rows]))
    return rows[order[:keep]]


@dataclass
class RankOutcome:
    """What :func:`analyze_and_rank` returns."""

    #: The ``keep`` smallest plans by ``(cost, enumeration index)``, sorted.
    plans: List[ScoredPlan]
    analyzed: int
    skipped: int


def analyze_and_rank(
    survivors: Sequence[Survivor],
    analyzer: DataflowAnalyzer,
    cost_model: CostModel,
    keep: int,
    require_feasible: bool = True,
    lower_bound: Optional[Callable[[int, FusionCandidate], float]] = None,
) -> RankOutcome:
    """Analyse survivors one at a time into a running top-K.

    The transfer search's loop: its survivors arrive best-first by
    admissible lower bound, and a survivor whose ``lower_bound`` (called
    with its index and candidate) strictly exceeds the current K-th cost is
    skipped unanalysed.  Its true cost is at least the bound, so it could
    not have entered the top-K: the plans are the ``keep`` smallest
    ``(cost, enumeration index)`` pairs either way, only ``analyzed``
    shrinks.  Infeasible survivors are dropped when ``require_feasible``.

    Consecutive survivors of one (chain, schedule, tile, geometry) cell —
    the gated modes of a gated chain — share one
    :meth:`DataflowAnalyzer.analyze_core`, and each is assembled with its
    own mode, exactly as :meth:`DataflowAnalyzer.analyze` would.
    """
    analyzed = 0
    skipped = 0
    # The last cell analysed and its core (see the docstring).
    last_cell: Optional[tuple] = None
    core: Optional[SubchainAnalysis] = None
    # Max-heap of (-cost, -index, ...): the root is the worst kept plan.
    heap: List[Tuple[float, int, FusionCandidate, DataflowResult]] = []
    for index, candidate in survivors:
        if (
            lower_bound is not None
            and len(heap) == keep
            and lower_bound(index, candidate) > -heap[0][0]
        ):
            skipped += 1
            continue
        cell = (
            candidate.chain,
            candidate.schedule,
            candidate.tile,
            candidate.geometry,
        )
        if cell != last_cell:
            core = analyzer.analyze_core(*cell)
            last_cell = cell
        result = analyzer.assemble(*cell, core, candidate.gated_sequential)
        analyzed += 1
        if require_feasible and not result.feasible:
            continue
        cost = cost_model.evaluate(result)
        entry = (-cost, -index, candidate, result)
        if len(heap) < keep:
            heapq.heappush(heap, entry)
        elif (cost, index) < (-heap[0][0], -heap[0][1]):
            heapq.heapreplace(heap, entry)

    plans = sorted(
        (-neg_cost, -neg_index, candidate, result)
        for neg_cost, neg_index, candidate, result in heap
    )
    return RankOutcome(plans=plans, analyzed=analyzed, skipped=skipped)


def profile_top_k(
    plans: Sequence[ScoredPlan], profiler: Optional[ProfilerFn]
) -> List[RankedPlan]:
    """The final top-K of a search, best first.

    Without a profiler the plans keep their cost-model order.  With one,
    each plan is profiled (an on-device measurement in the paper, the
    simulator here) and the list is re-ranked by profiled time, ties broken
    by enumeration index.
    """
    ranked = [
        (RankedPlan(candidate=candidate, result=result, predicted_cost_us=cost), index)
        for cost, index, candidate, result in plans
    ]
    if profiler is not None:
        for plan, _ in ranked:
            plan.profiled_time_us = profiler(plan.result)
        ranked.sort(key=lambda pair: (pair[0].best_known_time_us, pair[1]))
    return [plan for plan, _ in ranked]


def _emit_prune_span(
    chain: GemmChainSpec, cascade: CascadeResult, prune_s: float
) -> None:
    """Trace the cascade: survivors after each rule and each rule's time."""
    attrs: Dict[str, object] = {"initial": cascade.stats.initial}
    for rule in PruningRule:
        attrs[rule.value] = cascade.stats.surviving[rule]
        attrs[f"{rule.value}_us"] = round(cascade.rule_us[rule], 1)
    end_us = obs_trace.now_us()
    tracer().emit(
        "search.prune",
        start_us=end_us - prune_s * 1e6,
        end_us=end_us,
        chain=chain.name,
        **attrs,
    )


class SearchEngine:
    """FlashFuser's fusion search engine.

    Parameters
    ----------
    device:
        Target hardware.
    top_k:
        Number of candidates kept for final profiling; the paper selects 11
        (Figure 12b).
    include_dsm:
        Whether DSM participates in spilling and cluster geometries are
        explored.  Disabling this reproduces SMEM-only prior work.
    profiler:
        Optional callable returning a measured/simulated time for a
        candidate; when omitted the cost model's prediction ranks the top-K.
    space:
        Candidate space (defaults to power-of-two tiles up to 256).
    require_feasible:
        Drop candidates whose persistent intermediate spills to global
        memory (the definition of a fusion failure).

    Example
    -------
    ::

        from repro.hardware import h100_spec
        from repro.ir.workloads import get_chain_spec
        from repro.search import SearchEngine

        engine = SearchEngine(h100_spec(), top_k=5)
        result = engine.search(get_chain_spec("G1"))
        print(result.succeeded, result.best.predicted_cost_us)
        print(result.summary())      # candidates, prune counts, wall clock

    Most callers should go through :class:`~repro.api.FlashFuser`, which
    memoizes engines per configuration and layers the plan cache on top.
    """

    def __init__(
        self,
        device: HardwareSpec,
        top_k: int = 11,
        include_dsm: bool = True,
        profiler: Optional[ProfilerFn] = None,
        space: Optional[SearchSpace] = None,
        cost_model: Optional[CostModel] = None,
        require_feasible: bool = True,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.device = device
        self.top_k = top_k
        self.include_dsm = include_dsm and device.has_dsm
        self.profiler = profiler
        self.space = space or SearchSpace(device, include_clusters=self.include_dsm)
        self.cost_model = cost_model or CostModel(device)
        self.analyzer = DataflowAnalyzer(device, include_dsm=self.include_dsm)
        self.require_feasible = require_feasible

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #
    def search(self, chain: GemmChainSpec, transfer_seed=None) -> SearchResult:
        """Find the best fused execution plan for ``chain``.

        With a ``transfer_seed`` (a
        :class:`~repro.search.incremental.TransferSeed` from a previously
        compiled nearby shape), a bounded local search around the seed
        runs first; its result is returned (``mode="transfer"``) when it
        passes the acceptance bound
        (:data:`~repro.search.incremental.TRANSFER_BOUND`), otherwise the
        full enumeration runs as usual.
        """
        if transfer_seed is not None:
            with tracer().span("search.transfer", chain=chain.name) as tspan:
                transferred = self._transfer_search(chain, transfer_seed)
                tspan.set("accepted", transferred is not None)
            if transferred is not None:
                if transferred.phase_times_us is None:
                    transferred.phase_times_us = {
                        "transfer": transferred.search_time_s * 1e6
                    }
                return transferred
        start = time.perf_counter()
        pruner = Pruner(self.device, include_dsm=self.include_dsm)
        cascade = pruner.cascade(chain, self.space.components(chain))
        prune_s = time.perf_counter() - start
        if obs_trace.enabled():
            _emit_prune_span(chain, cascade, prune_s)

        scores = score_cascade(cascade, self.analyzer, self.cost_model)
        rank_t0 = time.perf_counter()
        kept = select_top_k(
            scores.cost,
            scores.index,
            self.top_k,
            scores.feasible if self.require_feasible else None,
        )
        plans = [scores.plan(row, self.analyzer) for row in kept.tolist()]
        profile_t0 = time.perf_counter()
        rank_s = scores.price_s + (profile_t0 - rank_t0)
        top_k = profile_top_k(plans, self.profiler)
        profile_s = time.perf_counter() - profile_t0

        elapsed = time.perf_counter() - start
        if obs_trace.enabled():
            end_us = obs_trace.now_us()
            tracer().emit(
                "search.exact",
                start_us=end_us - elapsed * 1e6,
                end_us=end_us,
                chain=chain.name,
                analyzed=len(scores),
            )
        return SearchResult(
            chain=chain,
            best=top_k[0] if top_k else None,
            top_k=top_k,
            pruning_stats=cascade.stats,
            candidates_enumerated=cascade.stats.initial,
            candidates_analyzed=len(scores),
            search_time_s=elapsed,
            phase_times_us={
                "enumerate_prune": prune_s * 1e6,
                "analyze": scores.analyze_s * 1e6,
                "rank": rank_s * 1e6,
                "profile": profile_s * 1e6,
            },
        )

    def _transfer_search(self, chain: GemmChainSpec, seed) -> Optional[SearchResult]:
        """Bounded local search around ``seed``; ``None`` means fall back."""
        # Local import: incremental.py returns SearchResult objects, so the
        # module-level dependency must point the other way.
        from repro.search.incremental import TransferSearch

        transfer = TransferSearch(
            self.device,
            space=self.space,
            cost_model=self.cost_model,
            top_k=self.top_k,
            include_dsm=self.include_dsm,
            require_feasible=self.require_feasible,
            profiler=self.profiler,
            analyzer=self.analyzer,
        )
        return transfer.search(chain, seed)
