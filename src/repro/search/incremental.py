"""Transfer-aware search.

Two cooperating mechanisms shrink the cold-compile cliff without ever
changing which plan a full search would select:

* **Admissible lower bounds** — :class:`CandidateLowerBound` prices a
  candidate *before* analysis using only its guaranteed-minimum global
  traffic and its exact compute time.  Both components bound the cost
  model's eventual verdict from below (the global volume only ever grows
  during analysis and the compute stage is replicated exactly), so
  best-first enumeration may skip any candidate whose bound already
  exceeds the current top-K threshold without changing the top-K.
* **Warm-start transfer** — :class:`TransferSearch` seeds a bounded local
  search from the plan of the nearest previously compiled shape
  (:class:`ShapeIndex`), ranks its neighborhood best-first by those bounds,
  and accepts the result only when it is provably within
  :data:`TRANSFER_BOUND` of the chain's absolute lower bound — otherwise the
  caller falls back to full enumeration.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.locks import make_lock
from repro.dataflow.analyzer import DataflowAnalyzer
from repro.dataflow.footprint import io_tensor_traffic, tensor_size_bytes
from repro.dataflow.loop_schedule import LoopSchedule
from repro.dataflow.tiling import TileConfig
from repro.dsm_comm.geometry import ClusterGeometry
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import GemmChainSpec
from repro.obs.logging import get_logger, log_event
from repro.search.cost_model import CostModel
from repro.search.pruning import Pruner, PruningStats
from repro.search.space import FusionCandidate, SearchSpace, SpaceComponents

_logger = get_logger(__name__)

#: Acceptance bound of transferred plans: the neighbourhood's cheapest
#: predicted cost must stay within this factor of the chain's admissible
#: cost lower bound.  It is part of every plan-cache key
#: (:meth:`~repro.config.FuserConfig.cache_key_fields`).
TRANSFER_BOUND = 2.0


class CandidateLowerBound:
    """Admissible cost lower bounds, computable without a dataflow analysis.

    For a candidate, :meth:`lower_bound` is ``max(global-traffic time,
    compute time)`` where the global traffic counts only the streamed
    input/output tensors — exactly the first contribution the analyzer
    charges to global memory, before any spill or communication traffic is
    added — and the compute time replicates the cost model's formula
    exactly.  Since global bandwidth is never SM-scaled, every later
    addition to the global volume can only raise the level cost, and the
    minimax objective is a maximum over stages, the bound never exceeds
    :meth:`CostModel.evaluate` of the analysed candidate.

    :meth:`chain_lower_bound` is candidate-independent: the chain's
    minimum I/O bytes over global bandwidth versus its FLOPs at the best
    possible efficiency.  It bounds every candidate's cost from below,
    including the full search's winner — the anchor the transfer
    acceptance test compares against.
    """

    def __init__(self, device: HardwareSpec, cost_model: CostModel) -> None:
        self.device = device
        self.cost_model = cost_model

    def lower_bound(self, chain: GemmChainSpec, candidate: FusionCandidate) -> float:
        """A cost the analysed candidate can never beat."""
        schedule, tile, geometry = (
            candidate.schedule,
            candidate.tile,
            candidate.geometry,
        )
        a = io_tensor_traffic("A", chain, schedule, tile, geometry)
        b = io_tensor_traffic("B", chain, schedule, tile, geometry)
        d = io_tensor_traffic("D", chain, schedule, tile, geometry)
        input_traffic = (a + b) + d
        volume = input_traffic + float(tensor_size_bytes("E", chain))
        memory_us = volume / (self.device.global_bandwidth_gbps * 1e3)
        return max(memory_us, self._compute_us(chain, candidate))

    def chain_lower_bound(self, chain: GemmChainSpec) -> float:
        """A cost no candidate of ``chain`` can beat."""
        memory_us = float(chain.io_bytes_min()) / (
            self.device.global_bandwidth_gbps * 1e3
        )
        effective_tflops = (
            self.device.peak_fp16_tflops * self.cost_model.compute_efficiency
        )
        compute_us = chain.total_flops() / (effective_tflops * 1e6)
        return max(memory_us, compute_us)

    def _compute_us(self, chain: GemmChainSpec, candidate: FusionCandidate) -> float:
        # Exact replica of CostModel._compute_time_us / _occupied_sms on the
        # candidate's components (no DataflowResult required).
        blocks = 1
        sizes = chain.dimension_sizes()
        for dim in ("m", "n", "k", "l"):
            if candidate.schedule.is_spatial(dim):
                blocks *= max(1, sizes[dim] // max(1, candidate.tile.block_of(dim)))
            else:
                blocks *= candidate.geometry.size_of(dim)
        occupied = max(1, min(self.device.num_sms, blocks))
        occupancy = occupied / self.device.num_sms
        efficiency = self.cost_model.compute_efficiency * max(
            0.25, min(1.0, occupancy)
        )
        effective_tflops = self.device.peak_fp16_tflops * efficiency
        return chain.total_flops() / (effective_tflops * 1e6)


@dataclass(frozen=True)
class TransferSeed:
    """The reusable skeleton of a previously selected execution plan."""

    schedule: LoopSchedule
    tile: TileConfig
    geometry: ClusterGeometry


def shape_family_key(
    chain: GemmChainSpec,
    device: HardwareSpec,
    search_config: Dict[str, object],
) -> str:
    """Key grouping shapes whose plans may seed each other.

    A family fixes everything except the problem dimensions: chain kind,
    activation, dtype, the device fingerprint and the plan-shaping search
    knobs.  Within a family, :class:`ShapeIndex` ranks entries by
    dimension distance.
    """
    canonical = {
        key: value
        for key, value in chain.canonical_dict().items()
        if key not in ("m", "n", "k", "l")
    }
    payload = {
        "canonical": canonical,
        "device": device.fingerprint(),
        "search": {key: search_config[key] for key in sorted(search_config)},
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def shape_distance(
    a: Tuple[int, int, int, int], b: Tuple[int, int, int, int]
) -> float:
    """Log-scale distance between two ``(m, n, k, l)`` shapes.

    Each dimension contributes the magnitude of its log2 ratio, so doubling
    any one dimension costs 1.0 and the metric is symmetric:

    >>> shape_distance((64, 768, 768, 1), (64, 768, 768, 1))
    0.0
    >>> shape_distance((64, 768, 768, 1), (256, 768, 768, 1))
    2.0
    >>> shape_distance((256, 768, 768, 1), (64, 768, 768, 1))
    2.0
    """
    return sum(
        abs(math.log2(max(1, x) / max(1, y))) for x, y in zip(a, b)
    )


class ShapeIndex:
    """Nearest-shape registry of previously selected plans.

    Maps a family key (see :func:`shape_family_key`) to a bounded set of
    ``(m, n, k, l) -> payload`` entries; :meth:`nearest` returns the
    payload whose shape minimises :func:`shape_distance` (ties broken by
    the smaller shape tuple, so lookups are deterministic).  Payloads are
    opaque; :class:`~repro.api.FlashFuser` stores :class:`TransferSeed` values.
    """

    def __init__(self, max_entries_per_family: int = 64) -> None:
        if max_entries_per_family < 1:
            raise ValueError("max_entries_per_family must be >= 1")
        self.max_entries_per_family = max_entries_per_family
        self._lock = make_lock("shape-index")
        self._families: Dict[str, "OrderedDict[tuple, object]"] = {}

    def register(
        self, family: str, dims: Tuple[int, int, int, int], payload: object
    ) -> None:
        """Remember ``payload`` as the plan for ``dims`` in ``family``."""
        dims = tuple(int(value) for value in dims)
        with self._lock:
            entries = self._families.setdefault(family, OrderedDict())
            entries[dims] = payload
            entries.move_to_end(dims)
            while len(entries) > self.max_entries_per_family:
                entries.popitem(last=False)

    def nearest(
        self, family: str, dims: Tuple[int, int, int, int]
    ) -> Optional[object]:
        """The payload of the family's nearest registered shape."""
        dims = tuple(int(value) for value in dims)
        with self._lock:
            entries = self._families.get(family)
            if not entries:
                return None
            best = min(
                entries.items(),
                key=lambda item: (shape_distance(dims, item[0]), item[0]),
            )
            return best[1]

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._families.values())


class TransferSearch:
    """Bounded local search around a transferred plan (warm start).

    The neighborhood fixes the seed's loop schedule and explores tiles and
    geometries whose per-dimension extents are within a factor of two of
    the seed's, across all gated modes — a few hundred candidates instead
    of the full cross product.  The neighborhood is a one-schedule
    :class:`~repro.search.space.SpaceComponents`, so it runs through the
    same pruning cascade and analyze → rank kernel as the full search,
    best-first in ``(lower bound, enumeration index)`` order so the
    neighborhood top-K is exact while most of it is skipped.

    The result is accepted only when the neighborhood's cheapest predicted
    cost stays within :data:`TRANSFER_BOUND` times the chain's absolute
    lower bound; since that bound also undercuts the full search's winner,
    an accepted transfer carries a plan provably within
    :data:`TRANSFER_BOUND` of optimal in its top-K.  A rejection returns
    ``None`` and the caller falls back to full enumeration.
    """

    def __init__(
        self,
        device: HardwareSpec,
        space: SearchSpace,
        cost_model: CostModel,
        top_k: int = 11,
        include_dsm: bool = True,
        require_feasible: bool = True,
        profiler=None,
        analyzer: Optional[DataflowAnalyzer] = None,
    ) -> None:
        self.device = device
        self.space = space
        self.cost_model = cost_model
        self.top_k = top_k
        self.include_dsm = include_dsm and device.has_dsm
        self.require_feasible = require_feasible
        self.profiler = profiler
        self.analyzer = analyzer or DataflowAnalyzer(
            device, include_dsm=self.include_dsm
        )
        self.bounds = CandidateLowerBound(device, cost_model)

    # ------------------------------------------------------------------ #
    # Neighborhood construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _near(value: int, seed_value: int) -> bool:
        return seed_value // 2 <= value <= seed_value * 2

    def neighborhood(self, chain: GemmChainSpec, seed: TransferSeed) -> SpaceComponents:
        """The seed-local slice of the chain's space (empty when foreign)."""
        components = self.space.components(chain)
        schedules = [seed.schedule] if seed.schedule in components.schedules else []
        return SpaceComponents(
            schedules=schedules,
            geometries=[
                geometry
                for geometry in components.geometries
                if all(
                    self._near(geometry.size_of(dim), seed.geometry.size_of(dim))
                    for dim in ("m", "n", "k", "l")
                )
            ],
            tiles=[
                tile
                for tile in components.tiles
                if all(
                    self._near(tile.block_of(dim), seed.tile.block_of(dim))
                    for dim in ("m", "n", "k", "l")
                )
            ],
            gated_modes=components.gated_modes,
        )

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, chain: GemmChainSpec, seed: TransferSeed):
        """Run the bounded local search; ``None`` means "fall back".

        Returns a :class:`~repro.search.engine.SearchResult` with
        ``mode="transfer"`` when the neighborhood's best plan passes the
        acceptance bound.
        """
        from repro.search.engine import SearchResult, analyze_and_rank, profile_top_k

        start = time.perf_counter()
        components = self.neighborhood(chain, seed)
        if components.size == 0:
            return None
        pruner = Pruner(self.device, include_dsm=self.include_dsm)
        survivors = pruner.cascade(chain, components).survivors()
        bounds = {
            index: self.bounds.lower_bound(chain, candidate)
            for index, candidate in survivors
        }
        # Best-first: once one survivor's bound exceeds the K-th best cost,
        # every later one's does too, so the rest are skipped unanalysed.
        outcome = analyze_and_rank(
            sorted(survivors, key=lambda pair: (bounds[pair[0]], pair[0])),
            self.analyzer,
            self.cost_model,
            keep=self.top_k,
            require_feasible=self.require_feasible,
            lower_bound=lambda index, _candidate: bounds[index],
        )
        if not outcome.plans:
            return None
        top_k = profile_top_k(outcome.plans, self.profiler)

        # Acceptance: the cost model must certify that the neighborhood
        # holds a plan provably close to optimal — its cheapest predicted
        # cost within the bound of the chain's absolute floor.  The
        # certificate is the *minimum* over the top-K, not the profiled
        # winner's cost: profiling may promote a plan the cost model ranks
        # lower (exactly as the full search's final selection does), and
        # that re-ranking must not void the certificate.
        chain_bound = self.bounds.chain_lower_bound(chain)
        certificate = min(plan.predicted_cost_us for plan in top_k)
        if certificate > TRANSFER_BOUND * chain_bound:
            log_event(
                _logger,
                "transfer-fallback",
                chain=chain.name,
                certificate_us=round(certificate, 3),
                bound_us=round(TRANSFER_BOUND * chain_bound, 3),
            )
            return None

        elapsed = time.perf_counter() - start
        stats = PruningStats(initial=components.size, surviving={})
        return SearchResult(
            chain=chain,
            best=top_k[0],
            top_k=top_k,
            pruning_stats=stats,
            candidates_enumerated=components.size,
            candidates_analyzed=outcome.analyzed,
            search_time_s=elapsed,
            mode="transfer",
            candidates_skipped=outcome.skipped,
        )
