"""Thread-block-cluster limits and MMA granularity.

The fusion search space is bounded by a handful of hardware constants:

* the maximum number of thread blocks a cluster may contain (16 on H100 with
  the non-portable size opt-in, 8 portably),
* the minimum tile granularity of one tensor-core MMA instruction
  (16x16x16 for FP16 on Hopper),
* the set of per-dimension cluster sizes the search considers
  ({1, 2, 4, 8, 16} in the paper).

These constants feed pruning Rule 2 (cluster-size constraint) and the initial
search-space construction of Section IV-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class ClusterLimits:
    """Hardware limits governing thread-block clusters.

    Parameters
    ----------
    max_blocks_per_cluster:
        Upper bound on the product of per-dimension cluster sizes for any
        single GEMM (Rule 2).
    allowed_dim_sizes:
        Per-dimension cluster sizes the search may pick from.
    mma_tile:
        Minimum (m, n, k) granularity of a tensor-core MMA operation; block
        tile sizes must be multiples of these.
    """

    max_blocks_per_cluster: int = 16
    allowed_dim_sizes: Tuple[int, ...] = (1, 2, 4, 8, 16)
    mma_tile: Tuple[int, int, int] = (16, 16, 16)

    def __post_init__(self) -> None:
        if self.max_blocks_per_cluster < 1:
            raise ValueError("max_blocks_per_cluster must be >= 1")
        if not self.allowed_dim_sizes:
            raise ValueError("allowed_dim_sizes must be non-empty")
        if any(size < 1 for size in self.allowed_dim_sizes):
            raise ValueError("cluster dimension sizes must be >= 1")
        if len(self.mma_tile) != 3 or any(v < 1 for v in self.mma_tile):
            raise ValueError("mma_tile must be three positive integers")

    def cluster_product_ok(self, *dims: int) -> bool:
        """Whether a set of per-dimension cluster sizes fits the hardware.

        This implements the core of pruning Rule 2: the product of the
        cluster dimensions participating in one GEMM must not exceed
        ``max_blocks_per_cluster``.
        """
        product = 1
        for dim in dims:
            if dim < 1:
                raise ValueError("cluster dimensions must be >= 1")
            product *= dim
        return product <= self.max_blocks_per_cluster

    def dim_size_allowed(self, size: int) -> bool:
        """Whether ``size`` is one of the cluster sizes the search considers."""
        return size in self.allowed_dim_sizes
