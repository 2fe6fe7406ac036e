"""Pruning rules (Section IV-C2).

Five rules cut the search space before any candidate reaches the dataflow
analyzer.  Rule 1 (divisible tile sizes) is inherited from prior work
(MCFuser); Rules 2-5 are specific to the cluster-expanded space:

* **Rule 1 — divisible tile sizes**: block tiles are MMA-granular and the
  cluster tile divides the problem extents evenly.
* **Rule 2 — cluster size constraint**: the per-GEMM product of cluster
  dimensions respects the hardware maximum (16 blocks on H100); both GEMMs
  share one cluster shape by construction of
  :class:`~repro.dsm_comm.geometry.ClusterGeometry`.
* **Rule 3 — activation constraint**: the accumulation dimension of the
  first GEMM (k) must be fully reduced before the activation runs — k is
  the innermost temporal loop, or, if spatial, one cluster covers its whole
  extent (so the all_exchange finishes the reduction on chip).
* **Rule 4 — dependency constraint**: a spatial split of L across clusters
  would require every cluster to see the full intermediate C, which cannot
  be communicated between clusters; L may be spatial only if a single
  cluster tile spans the whole L extent.
* **Rule 5 — memory capacity limit**: the persistent intermediate must fit
  within the on-chip spill budget (registers + SMEM + DSM of the chosen
  cluster).

The ``rule*`` methods judge one candidate and are the reference oracle
(:meth:`Pruner.prune`, the plan verifier and the baselines use them).  The
searches run :meth:`Pruner.cascade` instead: the rules split by axis —
Rules 1-2 read only (geometry, tile), Rules 3-5 read the schedule plus a
few cluster-tile extents, and no rule reads the gated mode — so the whole
cascade over one chain's space is a handful of numpy masks over the
:class:`~repro.search.space.SpaceComponents` axes (Rule 1 is
:meth:`Pruner.rule1_mask`), with the same survivors in the same order and
the same Table III counts as the per-candidate walk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.dataflow.footprint import ACCUMULATOR_ITEMSIZE, reused_tensor_footprint
from repro.dataflow.loop_schedule import LoopSchedule
from repro.dataflow.resource_map import default_budgets
from repro.dataflow.tiling import TileConfig
from repro.dsm_comm.geometry import ClusterGeometry
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import GemmChainSpec
from repro.search.space import FusionCandidate, SpaceComponents


class PruningRule(Enum):
    """The five rules of Section IV-C2, in application order."""

    DIVISIBLE_TILES = "rule1_divisible_tiles"
    CLUSTER_SIZE = "rule2_cluster_size"
    ACTIVATION = "rule3_activation"
    DEPENDENCY = "rule4_dependency"
    MEMORY_CAPACITY = "rule5_memory_capacity"


@dataclass
class PruningStats:
    """Counts of candidates surviving each rule (Table III)."""

    initial: int = 0
    surviving: Dict[PruningRule, int] = field(default_factory=dict)

    def record(self, rule: PruningRule, count: int) -> None:
        """Record the number of candidates alive after ``rule``."""
        self.surviving[rule] = count

    def reduction_rate(self, rule: PruningRule) -> float:
        """Fractional reduction achieved by ``rule`` relative to its input."""
        rules = list(PruningRule)
        index = rules.index(rule)
        before = self.initial if index == 0 else self.surviving[rules[index - 1]]
        after = self.surviving[rule]
        if before == 0:
            return 0.0
        return 1.0 - after / before

    @property
    def final(self) -> int:
        """Candidates alive after the full cascade."""
        if not self.surviving:
            return self.initial
        return self.surviving[list(PruningRule)[-1]]

    def total_reduction(self) -> float:
        """Overall reduction rate of the cascade."""
        if self.initial == 0:
            return 0.0
        return 1.0 - self.final / self.initial

    def as_rows(self) -> List[Tuple[str, int, float]]:
        """Rows of Table III: (step name, candidate count, reduction rate)."""
        rows: List[Tuple[str, int, float]] = [("Original Space", self.initial, 0.0)]
        for rule in PruningRule:
            if rule in self.surviving:
                rows.append(
                    (f"+ {rule.value}", self.surviving[rule], self.reduction_rate(rule))
                )
        return rows


@dataclass
class CascadeResult:
    """The survivors of :meth:`Pruner.cascade` over one chain's space.

    ``cells`` lists the surviving ``(schedule, geometry, tile)`` component
    indices, one row each, in enumeration order.  No rule reads the gated
    mode, so each cell survives in every gated mode.
    """

    chain: GemmChainSpec
    components: SpaceComponents
    cells: np.ndarray
    stats: PruningStats
    #: Wall time spent on each rule, in microseconds.
    rule_us: Dict[PruningRule, float]

    def __len__(self) -> int:
        return len(self.cells) * len(self.components.gated_modes)

    def indices(self) -> np.ndarray:
        """Enumeration index of every (cell, gated mode) row, in order."""
        parts = self.components
        modes = len(parts.gated_modes)
        stride_g = len(parts.tiles) * modes
        stride_s = len(parts.geometries) * stride_g
        s, g, t = self.cells.T
        base = s * stride_s + g * stride_g + t * modes
        return (base[:, None] + np.arange(modes)).reshape(-1)

    def survivors(self) -> List[Tuple[int, FusionCandidate]]:
        """``(enumeration index, candidate)`` pairs, in enumeration order."""
        parts = self.components
        candidates = (
            FusionCandidate(
                chain=self.chain,
                schedule=parts.schedules[s],
                tile=parts.tiles[t],
                geometry=parts.geometries[g],
                gated_sequential=gated_sequential,
            )
            for s, g, t in self.cells.tolist()
            for gated_sequential in parts.gated_modes
        )
        return list(zip(self.indices().tolist(), candidates))


class Pruner:
    """Apply the pruning cascade to candidates and keep per-rule statistics.

    Parameters
    ----------
    device:
        Hardware spec used for cluster limits and capacity budgets.
    include_dsm:
        Whether the DSM tier counts towards the Rule 5 capacity budget
        (``False`` reproduces the prior-work, SMEM-only space).
    """

    def __init__(self, device: HardwareSpec, include_dsm: bool = True) -> None:
        self.device = device
        self.include_dsm = include_dsm and device.has_dsm
        self.stats = PruningStats()
        # On-chip capacity per cluster size is a pure function of the
        # hardware; cache it because Rule 5 runs for every candidate.
        self._capacity_cache: Dict[Tuple[int, bool], float] = {}

    # ------------------------------------------------------------------ #
    # Individual rules
    # ------------------------------------------------------------------ #
    #: Maximum padding waste tolerated for extents that no MMA-granular tile
    #: divides exactly (e.g. the 196-row M of the C3/C4 conv chains).
    MAX_PADDING_WASTE = 0.125

    def rule1_divisible_tiles(self, candidate: FusionCandidate) -> bool:
        """Rule 1: MMA-granular block tiles that evenly divide the problem.

        Extents that are themselves multiples of the MMA granularity must be
        divided exactly; irregular extents are handled by padding, with the
        waste capped at :data:`MAX_PADDING_WASTE`.
        """
        limits = self.device.cluster_limits
        tile = candidate.tile
        if not tile.respects_mma(limits):
            return False
        if not tile.fits_problem(candidate.chain):
            return False
        mma = limits.mma_tile[0]
        sizes = candidate.chain.dimension_sizes()
        cluster = candidate.tile.cluster_tile(candidate.geometry)
        for dim, extent in sizes.items():
            if extent % cluster[dim] == 0:
                continue
            if extent % mma == 0:
                # A regular extent must be tiled exactly.
                return False
            padded = -(-extent // cluster[dim]) * cluster[dim]
            if (padded - extent) / padded > self.MAX_PADDING_WASTE:
                return False
        return True

    def rule1_mask(
        self,
        chain: GemmChainSpec,
        geometries: List[ClusterGeometry],
        tiles: List[TileConfig],
    ) -> np.ndarray:
        """Rule 1 over a (geometry x tile) grid (it ignores the schedule).

        Restates :meth:`rule1_divisible_tiles` cell-wise: the per-tile
        checks run once per tile, and the divisibility and padding-waste
        tests become integer and float64 array operations whose values
        equal the scalar ones.
        """
        limits = self.device.cluster_limits
        per_tile = np.array(
            [tile.respects_mma(limits) and tile.fits_problem(chain) for tile in tiles],
            dtype=bool,
        )
        sizes = chain.dimension_sizes()
        extents = np.array([sizes[dim] for dim in "mnkl"], dtype=np.int64)
        _, cluster = _tile_extents(geometries, tiles)
        divides = extents % cluster == 0
        padded = -(-extents // cluster) * cluster
        # An extent the MMA granularity divides must be tiled exactly; an
        # irregular one may be padded, within the waste cap.
        padding_ok = (extents % limits.mma_tile[0] != 0) & (
            (padded - extents) / padded <= self.MAX_PADDING_WASTE
        )
        return per_tile[None, :] & (divides | padding_ok).all(axis=2)

    def rule2_cluster_size(self, candidate: FusionCandidate) -> bool:
        """Rule 2: the cluster shape respects the hardware block limit."""
        if not self.include_dsm:
            return candidate.geometry.blocks_per_cluster == 1
        return candidate.geometry.is_valid(self.device.cluster_limits)

    def rule3_activation(self, candidate: FusionCandidate) -> bool:
        """Rule 3: GEMM0's reduction finishes before the activation runs."""
        schedule = candidate.schedule
        chain = candidate.chain
        if schedule.is_temporal("k"):
            return schedule.innermost() == "k"
        # k is spatial: the intra-cluster all_exchange completes the
        # reduction only if one cluster tile spans the whole K extent.
        covered = candidate.tile.block_k * candidate.geometry.cls_k
        return covered >= chain.k

    def rule4_dependency(self, candidate: FusionCandidate) -> bool:
        """Rule 4: a spatial L split must not cross cluster boundaries.

        Blocks in different clusters cannot exchange the intermediate C, so a
        spatial L partition is only legal when one cluster tile spans the
        whole L extent.  Without DSM the same argument applies to a spatial
        split of the GEMM1 reduction dimension N: prior-work kernels have no
        cross-block reduction path, so N may be spatial only if a single
        block covers it.
        """
        schedule = candidate.schedule
        if schedule.is_spatial("l"):
            covered = candidate.tile.block_l * candidate.geometry.cls_l
            if covered < candidate.chain.l:
                return False
        if not self.include_dsm and schedule.is_spatial("n"):
            if candidate.tile.block_n < candidate.chain.n:
                return False
        return True

    def rule5_memory_capacity(self, candidate: FusionCandidate) -> bool:
        """Rule 5: the persistent intermediate fits the on-chip budget."""
        reused = reused_tensor_footprint(
            candidate.chain, candidate.schedule, candidate.tile, candidate.geometry
        )
        on_chip = self._on_chip_capacity(
            candidate.geometry.blocks_per_cluster if self.include_dsm else 1,
            self.include_dsm and candidate.geometry.uses_dsm,
        )
        return reused.footprint_bytes <= on_chip

    def _on_chip_capacity(self, cluster_blocks: int, include_dsm: bool) -> float:
        """Total on-chip spill budget for one cluster size (cached)."""
        key = (cluster_blocks, include_dsm)
        if key not in self._capacity_cache:
            hierarchy = self.device.memory_hierarchy_for_cluster(cluster_blocks)
            budgets = default_budgets(hierarchy, include_dsm=include_dsm)
            self._capacity_cache[key] = sum(
                budget.capacity_bytes
                for budget in budgets
                if budget.capacity_bytes != float("inf")
            )
        return self._capacity_cache[key]

    # ------------------------------------------------------------------ #
    # Cascade application
    # ------------------------------------------------------------------ #
    def rules(self) -> List[Tuple[PruningRule, Callable[[FusionCandidate], bool]]]:
        """The rules in application order."""
        return [
            (PruningRule.DIVISIBLE_TILES, self.rule1_divisible_tiles),
            (PruningRule.CLUSTER_SIZE, self.rule2_cluster_size),
            (PruningRule.ACTIVATION, self.rule3_activation),
            (PruningRule.DEPENDENCY, self.rule4_dependency),
            (PruningRule.MEMORY_CAPACITY, self.rule5_memory_capacity),
        ]

    def passes(self, candidate: FusionCandidate) -> bool:
        """Whether a candidate survives the full cascade."""
        return all(rule(candidate) for _, rule in self.rules())

    def failed_rule(self, candidate: FusionCandidate) -> Optional[PruningRule]:
        """The first rule a candidate fails, or ``None`` if it survives."""
        for rule_id, rule in self.rules():
            if not rule(candidate):
                return rule_id
        return None

    def cascade(
        self, chain: GemmChainSpec, components: SpaceComponents
    ) -> CascadeResult:
        """Run Rules 1-5 over a whole space as masks over its axes.

        Gives the survivors, in order, and the Table III counts that
        :meth:`prune` gives for the components' full candidate stream, and
        records the counts in :attr:`stats`.  Rule 1 is one (geometry x
        tile) mask (:meth:`rule1_mask`), Rule 2 runs its scalar predicate
        once per geometry, and Rules 3-5 become one (geometry x tile) mask
        per loop schedule.
        """
        schedules, geometries, tiles = (
            components.schedules,
            components.geometries,
            components.tiles,
        )
        modes = len(components.gated_modes)
        clock = _RuleClock()
        if components.size == 0:
            self.stats = PruningStats(surviving={rule: 0 for rule in PruningRule})
            cells = np.zeros((0, 3), dtype=np.int64)
            return CascadeResult(chain, components, cells, self.stats, clock.us)

        rule1 = self.rule1_mask(chain, geometries, tiles)
        clock.charge(PruningRule.DIVISIBLE_TILES)
        # Rule 2 ignores the schedule and tile: any one serves as the probe's.
        rule2 = np.array(
            [
                self.rule2_cluster_size(
                    FusionCandidate(chain, schedules[0], tiles[0], geometry)
                )
                for geometry in geometries
            ],
            dtype=bool,
        )
        alive = rule1 & rule2[:, None]
        clock.charge(PruningRule.CLUSTER_SIZE)

        grid = _CascadeGrid(self, chain, components, rule2)
        clock.charge(PruningRule.MEMORY_CAPACITY)
        activation = dependency = 0
        masks = []
        for schedule in schedules:
            mask = alive & grid.rule3(schedule)
            activation += int(mask.sum())
            clock.charge(PruningRule.ACTIVATION)
            mask &= grid.rule4(schedule)
            dependency += int(mask.sum())
            clock.charge(PruningRule.DEPENDENCY)
            mask &= grid.rule5(schedule)
            masks.append(mask)
            clock.charge(PruningRule.MEMORY_CAPACITY)

        cells = np.argwhere(np.stack(masks))
        self.stats = PruningStats(
            initial=components.size,
            surviving={
                PruningRule.DIVISIBLE_TILES: len(schedules) * int(rule1.sum()) * modes,
                PruningRule.CLUSTER_SIZE: len(schedules) * int(alive.sum()) * modes,
                PruningRule.ACTIVATION: activation * modes,
                PruningRule.DEPENDENCY: dependency * modes,
                PruningRule.MEMORY_CAPACITY: len(cells) * modes,
            },
        )
        return CascadeResult(chain, components, cells, self.stats, clock.us)

    def prune(self, candidates: Iterable[FusionCandidate]) -> Iterator[FusionCandidate]:
        """Yield surviving candidates while accumulating Table III counts."""
        counts = {rule_id: 0 for rule_id, _ in self.rules()}
        initial = 0
        for candidate in candidates:
            initial += 1
            alive = True
            for rule_id, rule in self.rules():
                if alive and rule(candidate):
                    counts[rule_id] += 1
                else:
                    alive = False
            if alive:
                yield candidate
        self.stats = PruningStats(initial=initial, surviving=dict(counts))

    def prune_list(
        self, candidates: Iterable[FusionCandidate]
    ) -> List[FusionCandidate]:
        """Materialised version of :meth:`prune`."""
        return list(self.prune(candidates))


def _tile_extents(
    geometries: List[ClusterGeometry], tiles: List[TileConfig]
) -> Tuple[np.ndarray, np.ndarray]:
    """Block extents per tile and cluster-tile extents per (geometry, tile).

    Shapes ``(T, 4)`` and ``(G, T, 4)``, dimensions in (m, n, k, l) order.
    """
    cls = np.array([g.as_tuple() for g in geometries], dtype=np.int64)
    blocks = np.array(
        [[t.block_of(dim) for dim in "mnkl"] for t in tiles], dtype=np.int64
    ).reshape(-1, 4)
    return blocks, cls.reshape(-1, 1, 4) * blocks.reshape(1, -1, 4)


def persistence_class(schedule: LoopSchedule) -> str:
    """The :func:`reused_footprints` class that persists under ``schedule``.

    The cases of :func:`~repro.dataflow.footprint.reused_tensor_footprint`:
    a full row of C (``l`` outside ``n``, both temporal), a full row of the
    E accumulators (``n`` outside ``l``), the E cluster tile (``n``
    temporal, ``l`` spatial) or the C cluster tile (``n`` spatial).
    """
    n_temporal = schedule.is_temporal("n")
    if n_temporal and schedule.is_temporal("l"):
        return "c_row" if schedule.is_outer_than("l", "n") else "e_row"
    return "e_tile" if n_temporal else "c_tile"


def reused_footprints(
    chain: GemmChainSpec,
    cluster_m: np.ndarray,
    cluster_n: np.ndarray,
    cluster_l: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Rule 5 footprints (Figure 9) per persistence class, as arrays.

    The arguments are cluster-tile extents (block tile x cluster size) that
    broadcast against each other; each footprint equals
    :func:`~repro.dataflow.footprint.reused_tensor_footprint` of the cells
    whose schedule has that :func:`persistence_class`.
    """
    sizes = chain.dimension_sizes()
    m_tile = np.minimum(cluster_m, sizes["m"])
    itemsize = chain.itemsize
    return {
        "c_row": m_tile * sizes["n"] * itemsize,
        "e_row": m_tile * sizes["l"] * ACCUMULATOR_ITEMSIZE,
        "c_tile": m_tile * np.minimum(cluster_n, sizes["n"]) * itemsize,
        "e_tile": m_tile * np.minimum(cluster_l, sizes["l"]) * ACCUMULATOR_ITEMSIZE,
    }


class _RuleClock:
    """Charges the wall time since the last charge to one rule."""

    def __init__(self) -> None:
        self.us = {rule: 0.0 for rule in PruningRule}
        self._last = time.perf_counter()

    def charge(self, rule: PruningRule) -> None:
        now = time.perf_counter()
        self.us[rule] += (now - self._last) * 1e6
        self._last = now


class _CascadeGrid:
    """Rules 3-5 of one chain's space as per-schedule (geometry x tile) masks.

    Each mask restates its scalar rule over the cluster-tile extents of
    every (geometry, tile) cell; :meth:`Pruner.cascade` ANDs them in rule
    order.
    """

    def __init__(
        self,
        pruner: Pruner,
        chain: GemmChainSpec,
        components: SpaceComponents,
        rule2: np.ndarray,
    ) -> None:
        sizes = chain.dimension_sizes()
        blocks, cluster = _tile_extents(components.geometries, components.tiles)
        cluster_m, cluster_n, cluster_k, cluster_l = np.moveaxis(cluster, 2, 0)
        self.include_dsm = pruner.include_dsm
        self.k_covered = cluster_k >= sizes["k"]
        self.l_covered = cluster_l >= sizes["l"]
        self.n_in_block = np.broadcast_to(
            blocks[None, :, 1] >= sizes["n"], self.l_covered.shape
        )
        # Rule 5 footprints per persistence class, compared with each
        # geometry's on-chip capacity.  A geometry that fails Rule 2 has no
        # capacity (the device rejects its cluster size); it is already
        # dead, so -1 stands in.
        self._footprints = reused_footprints(chain, cluster_m, cluster_n, cluster_l)
        self._capacity = np.array(
            [
                pruner._on_chip_capacity(
                    g.blocks_per_cluster if pruner.include_dsm else 1,
                    pruner.include_dsm and g.uses_dsm,
                )
                if valid
                else -1.0
                for g, valid in zip(components.geometries, rule2.tolist())
            ]
        )[:, None]
        self._fits: Dict[str, np.ndarray] = {}

    def rule3(self, schedule: LoopSchedule):
        """Rule 3 over the grid (a bool when the schedule alone decides)."""
        if schedule.is_temporal("k"):
            return schedule.innermost() == "k"
        return self.k_covered

    def rule4(self, schedule: LoopSchedule):
        """Rule 4 over the grid (a bool when the schedule alone decides)."""
        mask = True
        if schedule.is_spatial("l"):
            mask = self.l_covered
        if not self.include_dsm and schedule.is_spatial("n"):
            mask = mask & self.n_in_block
        return mask

    def rule5(self, schedule: LoopSchedule) -> np.ndarray:
        """Rule 5 over the grid."""
        kind = persistence_class(schedule)
        fits = self._fits.get(kind)
        if fits is None:
            fits = self._footprints[kind] <= self._capacity
            self._fits[kind] = fits
        return fits
