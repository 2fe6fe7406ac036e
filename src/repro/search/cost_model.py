"""Analytical minimax cost model (Section IV-C1).

For every memory level ``l`` the cost of a candidate tiling strategy is the
time its data volume takes at that level's bandwidth,

    C_l(T_l) = V_l(T_l) / B_l,                                  (Eq. 1)

and the objective is to minimise the slowest stage,

    min over T of  max_l C_l(T_l),                              (Eq. 2)

subject to per-level capacity constraints (Eq. 3), which the pruning rules
and the greedy placement enforce.  The model additionally includes the
tensor-core compute time as one more "stage" so that compute-bound
configurations are not ranked purely by their (tiny) memory cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.dataflow.analyzer import VOLUME_LEVELS, CellAnalysis, DataflowResult
from repro.hardware.memory import MemoryHierarchy, MemoryLevelName
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import GemmChainSpec


@dataclass(frozen=True)
class CostBreakdown:
    """Per-stage cost of one candidate, all in microseconds."""

    per_level_us: Dict[str, float]
    compute_us: float

    @property
    def bottleneck_level(self) -> str:
        """Name of the slowest stage (a memory level or ``"compute"``)."""
        stages = dict(self.per_level_us)
        stages["compute"] = self.compute_us
        return max(stages, key=stages.get)

    @property
    def bottleneck_us(self) -> float:
        """Time of the slowest stage — the minimax objective value."""
        return max(max(self.per_level_us.values(), default=0.0), self.compute_us)

    @property
    def memory_bound(self) -> bool:
        """Whether a memory level, not compute, is the bottleneck."""
        return self.bottleneck_level != "compute"


class CostModel:
    """Evaluate the minimax data-movement cost of analysed candidates.

    Parameters
    ----------
    device:
        Hardware spec providing per-level bandwidths, DSM curves and peak
        compute throughput.
    compute_efficiency:
        Fraction of peak tensor-core throughput a well-tuned mainloop
        sustains (kernel overheads, tail effects).
    """

    def __init__(self, device: HardwareSpec, compute_efficiency: float = 0.75) -> None:
        if not 0.0 < compute_efficiency <= 1.0:
            raise ValueError("compute_efficiency must be in (0, 1]")
        self.device = device
        self.compute_efficiency = compute_efficiency
        # Per-cluster-size hierarchies and bandwidth tables: pure functions
        # of the hardware, cached because every candidate asks for one of
        # the same few cluster sizes.
        self._hierarchy_cache: Dict[int, MemoryHierarchy] = {}
        self._bandwidth_cache: Dict[int, Dict[str, Tuple[float, bool]]] = {}

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def breakdown(self, result: DataflowResult) -> CostBreakdown:
        """Per-stage cost of one analysed candidate."""
        hierarchy = self._hierarchy_for(result.geometry.blocks_per_cluster)
        sms = self._occupied_sms(result)

        per_level: Dict[str, float] = {}
        for name, volume in result.volumes.items():
            if volume <= 0:
                continue
            if not hierarchy.has(name):
                # DSM volume charged by a candidate whose cluster has a
                # single block (no DSM tier): bill it at global bandwidth.
                level = hierarchy.get(MemoryLevelName.GLOBAL)
            else:
                level = hierarchy.get(name)
            bandwidth = level.bandwidth_gbps
            if name in (MemoryLevelName.REGISTER, MemoryLevelName.SMEM):
                # Per-SM bandwidths aggregate across all SMs working on the
                # problem; scale by the number of SMs the launch occupies.
                bandwidth *= sms
            per_level[name] = volume / (bandwidth * 1e3)

        compute_us = self._compute_time_us(result, sms)
        return CostBreakdown(per_level_us=per_level, compute_us=compute_us)

    def evaluate(self, result: DataflowResult) -> float:
        """The minimax objective (Eq. 2) in microseconds — lower is better."""
        return self.breakdown(result).bottleneck_us

    def evaluate_cells(self, chain: GemmChainSpec, cells: CellAnalysis) -> np.ndarray:
        """:meth:`evaluate` of every (cell, gated mode) of an array analysis.

        Returns an ``(N, gated modes)`` array, bit-identical to
        :meth:`evaluate` of the corresponding :class:`DataflowResult` (the
        occupied-SM count restates :meth:`_occupied_sms` over the cells).
        """
        extents = np.array(
            [chain.dimension_sizes()[dim] for dim in ("m", "n", "k", "l")],
            dtype=np.int64,
        )
        factors = np.where(
            cells.spatial,
            np.maximum(1, extents // np.maximum(1, cells.blocks)),
            cells.cls,
        )
        occupied = np.clip(np.prod(factors, axis=1), 1, self.device.num_sms)
        rows, modes, levels = cells.volumes.shape
        cluster_sizes = np.prod(cells.cls[:, :3], axis=1)
        costs = self._minimax(
            cells.volumes.reshape(rows * modes, levels),
            VOLUME_LEVELS,
            np.repeat(cluster_sizes, modes),
            np.repeat(occupied, modes),
            np.full(rows * modes, float(chain.total_flops())),
        )
        return costs.reshape(rows, modes)

    def _minimax(
        self,
        volumes: np.ndarray,
        names: Sequence[str],
        cluster_sizes: np.ndarray,
        occupied: np.ndarray,
        flops: np.ndarray,
    ) -> np.ndarray:
        """Eq. 2 over rows of per-level volumes (columns named ``names``).

        Every arithmetic operation mirrors :meth:`breakdown` and
        :meth:`_compute_time_us` in the same order on the same float64
        values.  Zero-volume cells divide by 1.0 and cost zero, matching
        the scalar skip of non-positive volumes.
        """
        bandwidths = np.ones_like(volumes)
        for size in np.unique(cluster_sizes).tolist():
            table = self._level_bandwidths(int(size))
            rows = cluster_sizes == size
            for j, name in enumerate(names):
                base, scaled = table[name]
                bandwidths[rows, j] = base * occupied[rows] if scaled else base
        bandwidths = np.where(volumes > 0, bandwidths, 1.0)
        level_costs = volumes / (bandwidths * 1e3)

        occupancy = occupied / self.device.num_sms
        efficiency = self.compute_efficiency * np.maximum(
            0.25, np.minimum(1.0, occupancy)
        )
        effective_tflops = self.device.peak_fp16_tflops * efficiency
        compute_us = flops / (effective_tflops * 1e6)
        if volumes.shape[1] == 0:
            return compute_us
        return np.maximum(level_costs.max(axis=1), compute_us)

    def predicted_time_us(self, result: DataflowResult) -> float:
        """Predicted kernel time: the bottleneck stage plus launch overhead."""
        return self.breakdown(result).bottleneck_us + self._launch_overhead_us()

    def predicted_tflops(self, result: DataflowResult) -> float:
        """Predicted sustained TFLOPS of the fused kernel."""
        time_us = self.predicted_time_us(result)
        if time_us <= 0:
            return 0.0
        return result.chain.total_flops() / time_us / 1e6

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _compute_time_us(self, result: DataflowResult, sms: int) -> float:
        flops = result.chain.total_flops()
        # Launches that occupy only part of the machine sustain a lower
        # fraction of peak; the same derating is applied by the performance
        # simulator so the cost-model ranking and the profiling agree.
        occupancy = sms / self.device.num_sms
        efficiency = self.compute_efficiency * max(0.25, min(1.0, occupancy))
        effective_tflops = self.device.peak_fp16_tflops * efficiency
        return flops / (effective_tflops * 1e6)

    def _hierarchy_for(self, cluster_size: int) -> MemoryHierarchy:
        """The device hierarchy for one cluster size (cached)."""
        hierarchy = self._hierarchy_cache.get(cluster_size)
        if hierarchy is None:
            hierarchy = self.device.memory_hierarchy_for_cluster(cluster_size)
            self._hierarchy_cache[cluster_size] = hierarchy
        return hierarchy

    def _level_bandwidths(self, cluster_size: int) -> Dict[str, Tuple[float, bool]]:
        """Per-level ``(bandwidth_gbps, scales_with_sms)`` for one cluster size.

        Mirrors the level resolution of :meth:`breakdown`: names absent from
        the cluster's hierarchy (DSM on single-block clusters) are billed at
        global bandwidth, and per-SM levels aggregate across occupied SMs.
        """
        table = self._bandwidth_cache.get(cluster_size)
        if table is None:
            hierarchy = self._hierarchy_for(cluster_size)
            table = {}
            for name in MemoryLevelName.ORDER:
                if hierarchy.has(name):
                    level = hierarchy.get(name)
                else:
                    level = hierarchy.get(MemoryLevelName.GLOBAL)
                scaled = name in (MemoryLevelName.REGISTER, MemoryLevelName.SMEM)
                table[name] = (level.bandwidth_gbps, scaled)
            self._bandwidth_cache[cluster_size] = table
        return table

    def _occupied_sms(self, result: DataflowResult) -> int:
        """How many SMs the candidate's launch keeps busy."""
        chain = result.chain
        tile = result.tile
        geometry = result.geometry
        sizes = chain.dimension_sizes()
        blocks = 1
        for dim in ("m", "n", "k", "l"):
            if result.schedule.is_spatial(dim):
                blocks *= max(1, sizes[dim] // max(1, tile.block_of(dim)))
            else:
                blocks *= geometry.size_of(dim)
        return max(1, min(self.device.num_sms, blocks))

    def _launch_overhead_us(self) -> float:
        """Fixed kernel launch plus prologue/epilogue overhead."""
        return 3.0
