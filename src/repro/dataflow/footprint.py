"""Tensor footprints and reuse analysis.

The fused two-GEMM chain touches five logical tensors:

========  ==========  =======================================
tensor    dimensions  role
========  ==========  =======================================
``A``     (m, k)      input activation
``B``     (k, n)      GEMM0 weight (two copies for gated FFN)
``C``     (m, n)      intermediate (activation applied)
``D``     (n, l)      GEMM1 weight
``E``     (m, l)      output
========  ==========  =======================================

This module computes block-tile footprints, whole-tensor sizes, and — the
part that drives the spilling decision of Figure 9 — the footprint of the
tensor that must *persist* on chip for a given loop schedule, together with
how many times it is re-accessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dataflow.loop_schedule import LoopSchedule
from repro.dataflow.tiling import TileConfig
from repro.dsm_comm.geometry import ClusterGeometry
from repro.ir.graph import GemmChainSpec

#: Loop dimensions each logical tensor is indexed by.
TENSOR_DIMS: Dict[str, Tuple[str, ...]] = {
    "A": ("m", "k"),
    "B": ("k", "n"),
    "C": ("m", "n"),
    "D": ("n", "l"),
    "E": ("m", "l"),
}

#: Accumulators are kept in FP32 regardless of the storage datatype.
ACCUMULATOR_ITEMSIZE = 4


def tensor_size_bytes(
    tensor: str, chain: GemmChainSpec, branches: Optional[int] = None
) -> int:
    """Whole-tensor size in bytes (both weight branches for a gated B).

    ``branches`` overrides the chain's own GEMM0 branch count; passing 1
    yields the single-branch (standard-FFN) size of B, which
    :meth:`~repro.dataflow.analyzer.DataflowAnalyzer.assemble` scales back
    up per chain kind.
    """
    dims = TENSOR_DIMS[tensor]
    sizes = chain.dimension_sizes()
    elements = 1
    for dim in dims:
        elements *= sizes[dim]
    if branches is None:
        branches = chain.num_gemm0_branches if tensor == "B" else 1
    return elements * chain.itemsize * branches


def block_tile_footprint(
    tensor: str, tile: TileConfig, itemsize: int, branches: int = 1
) -> int:
    """Bytes one block tile of ``tensor`` occupies."""
    dims = TENSOR_DIMS[tensor]
    elements = 1
    for dim in dims:
        elements *= tile.block_of(dim)
    return elements * itemsize * branches


def cluster_tile_footprint(
    tensor: str,
    tile: TileConfig,
    geometry: ClusterGeometry,
    itemsize: int,
    branches: int = 1,
) -> int:
    """Bytes one cluster tile of ``tensor`` occupies."""
    dims = TENSOR_DIMS[tensor]
    cluster = tile.cluster_tile(geometry)
    elements = 1
    for dim in dims:
        elements *= cluster[dim]
    return elements * itemsize * branches


@dataclass(frozen=True)
class ReusedTensorInfo:
    """Description of the intermediate data that must persist on chip.

    Parameters
    ----------
    tensor:
        ``"C"`` when the full intermediate row must be kept (l-outer
        schedules) or ``"E"`` when partial output accumulators must persist
        across the n loop (n-outer schedules).
    footprint_bytes:
        On-chip bytes required per cluster.
    reuse_trips:
        How many temporal iterations re-access the persistent data.
    accesses_per_trip:
        1 for read-only reuse of C, 2 for the read-modify-write accumulation
        of partial E.
    """

    tensor: str
    footprint_bytes: int
    reuse_trips: int
    accesses_per_trip: int

    @property
    def reuse_traffic_per_byte(self) -> int:
        """How many times each persistent byte moves during the kernel."""
        return self.reuse_trips * self.accesses_per_trip


def temporal_trip_count(
    dim: str,
    chain: GemmChainSpec,
    schedule: LoopSchedule,
    tile: TileConfig,
    geometry: ClusterGeometry,
) -> int:
    """Number of sequential iterations of ``dim``.

    Spatial dimensions are covered by parallel units, so their sequential
    trip count is one (line 5 of Algorithm 1: the effective size of a spatial
    dimension is its tile size).
    """
    if schedule.is_spatial(dim):
        return 1
    extent = chain.dimension_sizes()[dim]
    cluster_extent = tile.block_of(dim) * geometry.size_of(dim)
    return max(1, -(-extent // cluster_extent))  # ceil division


def reused_tensor_footprint(
    chain: GemmChainSpec,
    schedule: LoopSchedule,
    tile: TileConfig,
    geometry: ClusterGeometry,
) -> ReusedTensorInfo:
    """Determine which intermediate persists on chip and how large it is.

    The decision follows Figure 9:

    * If the temporal ``l`` loop is nested outside the temporal ``n`` loop
      (an "MLNK"-style order), the complete intermediate row of C — the
      cluster's M tile by the *full* N extent — must be kept and is re-read
      on every ``l`` iteration.
    * If the temporal ``n`` loop is outside ``l`` ("MNLK"-style), partial
      output accumulators — the cluster's M tile by the full L extent, in
      FP32 — persist and are read-modified-written on every ``n`` iteration.
    * If ``n`` is spatial (its extent covered by parallel blocks), only the
      cluster tile of C must be live; it is reused across the temporal ``l``
      iterations (or consumed immediately if ``l`` is also spatial).
    * If ``l`` is spatial but ``n`` temporal, partial output accumulators of
      the cluster's (M, L) tile persist across the ``n`` iterations.
    """
    sizes = chain.dimension_sizes()
    cluster = tile.cluster_tile(geometry)
    m_tile = min(cluster["m"], sizes["m"])
    itemsize = chain.itemsize

    n_temporal = schedule.is_temporal("n")
    l_temporal = schedule.is_temporal("l")

    if n_temporal and l_temporal:
        if schedule.is_outer_than("l", "n"):
            footprint = m_tile * sizes["n"] * itemsize
            trips = temporal_trip_count("l", chain, schedule, tile, geometry)
            return ReusedTensorInfo("C", footprint, trips, accesses_per_trip=1)
        footprint = m_tile * sizes["l"] * ACCUMULATOR_ITEMSIZE
        trips = temporal_trip_count("n", chain, schedule, tile, geometry)
        return ReusedTensorInfo("E", footprint, trips, accesses_per_trip=2)

    if not n_temporal and l_temporal:
        footprint = m_tile * min(cluster["n"], sizes["n"]) * itemsize
        trips = temporal_trip_count("l", chain, schedule, tile, geometry)
        return ReusedTensorInfo("C", footprint, trips, accesses_per_trip=1)

    if n_temporal and not l_temporal:
        footprint = m_tile * min(cluster["l"], sizes["l"]) * ACCUMULATOR_ITEMSIZE
        trips = temporal_trip_count("n", chain, schedule, tile, geometry)
        return ReusedTensorInfo("E", footprint, trips, accesses_per_trip=2)

    # Both n and l spatial: the intermediate cluster tile is produced and
    # consumed in place (through the shuffle); nothing is re-read.
    footprint = m_tile * min(cluster["n"], sizes["n"]) * itemsize
    return ReusedTensorInfo("C", footprint, reuse_trips=1, accesses_per_trip=1)


#: Loop dimensions whose sequential iteration forces one full re-streaming of
#: a tensor from global memory.  The structure of the fused two-GEMM chain
#: determines these: the input activation A(m, k) is consumed once per
#: intermediate tile, i.e. once per n iteration; the GEMM0 weight B(k, n) and
#: the GEMM1 weight D(n, l) are consumed once per output row block, i.e. once
#: per m iteration; the output E is written exactly once (partial-sum spills
#: are charged separately through the reused-tensor placement).
_RESTREAM_DIMS: Dict[str, Tuple[str, ...]] = {
    "A": ("n",),
    "B": ("m",),
    "D": ("m",),
    "E": (),
}


def io_tensor_traffic(
    tensor: str,
    chain: GemmChainSpec,
    schedule: LoopSchedule,
    tile: TileConfig,
    geometry: ClusterGeometry,
    branches: Optional[int] = None,
) -> float:
    """Global-memory traffic of one input/output tensor in bytes.

    A tensor is streamed tile-by-tile and contributes its full size once,
    multiplied by the trip count of every *temporal* loop that forces it to
    be re-streamed (see :data:`_RESTREAM_DIMS`).  Spatial dimensions are
    covered by parallel units and contribute a factor of one — reuse across
    blocks is served by L2 multicast, matching Algorithm 1's treatment of
    spatial dimensions.  ``branches`` forwards to
    :func:`tensor_size_bytes` (single-branch sizing for the analysis
    core).
    """
    size = tensor_size_bytes(tensor, chain, branches=branches)
    factor = 1.0
    for dim in _RESTREAM_DIMS[tensor]:
        if schedule.is_temporal(dim):
            factor *= temporal_trip_count(dim, chain, schedule, tile, geometry)
    return float(size) * factor
