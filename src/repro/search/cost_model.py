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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.dataflow.analyzer import DataflowResult
from repro.hardware.memory import MemoryLevelName
from repro.hardware.spec import HardwareSpec


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
        # Per-cluster-size bandwidth tables for the batched scorer; a pure
        # function of the hardware, cached because every batch rebuilds the
        # same few cluster sizes.
        self._bandwidth_cache: Dict[int, Dict[str, Tuple[float, bool]]] = {}

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def breakdown(self, result: DataflowResult) -> CostBreakdown:
        """Per-stage cost of one analysed candidate."""
        cluster_size = result.geometry.blocks_per_cluster
        hierarchy = self.device.memory_hierarchy_for_cluster(cluster_size)

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
                bandwidth *= self._occupied_sms(result)
            per_level[name] = volume / (bandwidth * 1e3)

        compute_us = self._compute_time_us(result)
        return CostBreakdown(per_level_us=per_level, compute_us=compute_us)

    def evaluate(self, result: DataflowResult) -> float:
        """The minimax objective (Eq. 2) in microseconds — lower is better."""
        return self.breakdown(result).bottleneck_us

    def evaluate_batch(self, results: Sequence[DataflowResult]) -> np.ndarray:
        """Vectorized :meth:`evaluate` over many analysed candidates.

        One numpy pass scores the whole batch: per-level costs become an
        ``(N, levels)`` matrix, the compute stage one more column, and the
        minimax objective a row-wise maximum.  Every arithmetic operation
        mirrors the scalar path in the same order on the same float64
        values, so the returned costs are bit-identical to calling
        :meth:`evaluate` per result — the property that lets the search
        engines score in batches without changing any ranking.
        """
        count = len(results)
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        if type(self).evaluate is not CostModel.evaluate:
            # A subclass that re-prices plans keeps its own scalar verdicts.
            return np.array([self.evaluate(result) for result in results])

        # Column layout: the union of level names charged by the batch.
        names: List[str] = []
        for result in results:
            for name in result.volumes:
                if name not in names:
                    names.append(name)
        columns = {name: j for j, name in enumerate(names)}

        volumes = np.zeros((count, max(1, len(names))), dtype=np.float64)
        # Cells with zero volume divide by 1.0 and contribute a zero cost,
        # matching the scalar path's skip of non-positive volumes.
        bandwidths = np.ones_like(volumes)
        occupied = np.empty(count, dtype=np.float64)
        flops = np.empty(count, dtype=np.float64)

        for i, result in enumerate(results):
            sms = self._occupied_sms(result)
            occupied[i] = sms
            flops[i] = result.chain.total_flops()
            table = self._level_bandwidths(result.geometry.blocks_per_cluster)
            for name, volume in result.volumes.items():
                if volume <= 0:
                    continue
                base, scaled = table[name]
                j = columns[name]
                volumes[i, j] = volume
                bandwidths[i, j] = base * sms if scaled else base

        level_costs = volumes / (bandwidths * 1e3)

        occupancy = occupied / self.device.num_sms
        efficiency = self.compute_efficiency * np.maximum(
            0.25, np.minimum(1.0, occupancy)
        )
        effective_tflops = self.device.peak_fp16_tflops * efficiency
        compute_us = flops / (effective_tflops * 1e6)

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
    def _compute_time_us(self, result: DataflowResult) -> float:
        flops = result.chain.total_flops()
        # Launches that occupy only part of the machine sustain a lower
        # fraction of peak; the same derating is applied by the performance
        # simulator so the cost-model ranking and the profiling agree.
        occupancy = self._occupied_sms(result) / self.device.num_sms
        efficiency = self.compute_efficiency * max(0.25, min(1.0, occupancy))
        effective_tflops = self.device.peak_fp16_tflops * efficiency
        return flops / (effective_tflops * 1e6)

    def _level_bandwidths(self, cluster_size: int) -> Dict[str, Tuple[float, bool]]:
        """Per-level ``(bandwidth_gbps, scales_with_sms)`` for one cluster size.

        Mirrors the level resolution of :meth:`breakdown`: names absent from
        the cluster's hierarchy (DSM on single-block clusters) are billed at
        global bandwidth, and per-SM levels aggregate across occupied SMs.
        """
        table = self._bandwidth_cache.get(cluster_size)
        if table is None:
            hierarchy = self.device.memory_hierarchy_for_cluster(cluster_size)
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
        blocks = 1
        for dim in ("m", "n", "k", "l"):
            if result.schedule.is_spatial(dim):
                extent = chain.dimension_sizes()[dim]
                blocks *= max(1, extent // max(1, tile.block_of(dim)))
            else:
                blocks *= geometry.size_of(dim)
        return max(1, min(self.device.num_sms, blocks))

    def _launch_overhead_us(self) -> float:
        """Fixed kernel launch plus prologue/epilogue overhead."""
        return 3.0
