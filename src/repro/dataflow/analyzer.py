"""The dataflow analyzer (Algorithm 1).

Given one candidate — a loop schedule, block tile sizes and a cluster
geometry — the analyzer produces

* the per-memory-level data movement volume ``D_V`` (bytes moved through
  registers, SMEM, DSM and global memory),
* the greedy placement of the persistent intermediate across the hierarchy,
* the dsm_comm plan implied by the cluster geometry, and
* a feasibility verdict (whether the fusion stays on chip).

:meth:`DataflowAnalyzer.analyze` analyses one candidate and is the scalar
oracle (the plan verifier, the baselines and the ablation use it).  The
fusion search runs :meth:`DataflowAnalyzer.analyze_cells` instead: the same
arithmetic, in the same float order, over every surviving (schedule,
geometry, tile) cell of the pruning cascade at once, as numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.footprint import (
    ACCUMULATOR_ITEMSIZE,
    ReusedTensorInfo,
    io_tensor_traffic,
    reused_tensor_footprint,
    tensor_size_bytes,
)
from repro.dataflow.loop_schedule import LoopSchedule
from repro.dataflow.resource_map import (
    ResourceMapping,
    TensorPlacement,
    default_budgets,
    greedy_place,
)
from repro.dataflow.tiling import TileConfig
from repro.dsm_comm.geometry import ClusterGeometry
from repro.dsm_comm.primitives import CommPlan
from repro.hardware.memory import MemoryLevelName
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import GemmChainSpec

#: The levels Algorithm 1 charges, fast to slow: the volume columns of
#: :class:`CellAnalysis` (L2 is hardware-managed and never charged).
VOLUME_LEVELS: Tuple[str, ...] = (
    MemoryLevelName.REGISTER,
    MemoryLevelName.SMEM,
    MemoryLevelName.DSM,
    MemoryLevelName.GLOBAL,
)

#: Loop dimensions in the column order of the per-cell (N, 4) arrays.
_DIMS = ("m", "n", "k", "l")


@dataclass
class DataflowResult:
    """Output of one dataflow analysis.

    Attributes
    ----------
    volumes:
        Bytes moved per memory level, keyed by level name.
    mapping:
        Greedy placement of the persistent intermediate.
    reused:
        Description of the persistent intermediate (which tensor, footprint,
        reuse count).
    comm_plan:
        The dsm_comm collectives the cluster geometry implies.
    feasible:
        ``True`` when the persistent intermediate stays on chip, i.e. the
        fusion does not fall back to a global-memory round trip.
    """

    chain: GemmChainSpec
    schedule: LoopSchedule
    tile: TileConfig
    geometry: ClusterGeometry
    volumes: Dict[str, float]
    mapping: ResourceMapping
    reused: ReusedTensorInfo
    comm_plan: CommPlan
    feasible: bool

    @property
    def global_bytes(self) -> float:
        """Bytes moved to or from global memory."""
        return self.volumes.get(MemoryLevelName.GLOBAL, 0.0)

    @property
    def dsm_bytes(self) -> float:
        """Bytes moved over the SM-to-SM fabric."""
        return self.volumes.get(MemoryLevelName.DSM, 0.0)

    @property
    def on_chip_bytes(self) -> float:
        """Bytes served from registers, SMEM and DSM."""
        return sum(
            self.volumes.get(name, 0.0)
            for name in (
                MemoryLevelName.REGISTER,
                MemoryLevelName.SMEM,
                MemoryLevelName.DSM,
            )
        )


@dataclass
class SubchainAnalysis:
    """The chain-kind-independent core of one candidate analysis.

    Everything here depends only on the candidate (schedule, tile,
    geometry), the problem dimensions and the analyzer's device context —
    *not* on the chain kind or the gated-sequential flag, so both gated
    modes of a cell assemble from one record.  The GEMM0 weight traffic is
    stored per branch (``b_unit_traffic``) and scaled back up at assembly
    time, which is exact because the branch count is a small power of two.
    """

    a_traffic: float
    b_unit_traffic: float
    d_traffic: float
    output_traffic: float
    reused: ReusedTensorInfo
    placement: TensorPlacement
    reuse_volumes: Dict[str, float]
    clusters_per_output: int
    feasible: bool


@dataclass
class CellAnalysis:
    """Algorithm 1 over many (schedule, geometry, tile) cells, as arrays.

    One row per cell of :meth:`DataflowAnalyzer.analyze_cells`' ``cells``;
    ``volumes`` adds one axis for the gated modes, the only input the
    dsm_comm plan reads beyond the cell.  Every value equals what
    :meth:`DataflowAnalyzer.analyze` gives for the same candidate, bit for
    bit (``tests/test_search_vector.py`` pins this).  Per-dimension columns
    are in (m, n, k, l) order, level columns in :data:`VOLUME_LEVELS` order.
    """

    #: Whether each loop dimension is spatial, ``(N, 4)`` bool.
    spatial: np.ndarray
    #: Block tile extents, ``(N, 4)``.
    blocks: np.ndarray
    #: Cluster sizes, ``(N, 4)``.
    cls: np.ndarray
    #: Global traffic of A, single-branch B, D (``(N,)`` each) and E.
    a_traffic: np.ndarray
    b_unit_traffic: np.ndarray
    d_traffic: np.ndarray
    output_traffic: float
    #: The Figure 9 persistent intermediate: on-chip bytes per cluster and
    #: how many times each byte moves.
    footprint_bytes: np.ndarray
    reuse_traffic_per_byte: np.ndarray
    #: Greedy spill of the footprint, ``(N, 4)`` bytes per level.
    allocations: np.ndarray
    clusters_per_output: np.ndarray
    #: The intermediate stays on chip (nothing spilled to global memory).
    feasible: np.ndarray
    #: Bytes moved per level, ``(N, gated modes, 4)``, dsm_comm included.
    volumes: np.ndarray


class DataflowAnalyzer:
    """Algorithm 1: quantify data movement for one candidate plan.

    Parameters
    ----------
    device:
        Hardware description providing capacities and bandwidths.
    include_dsm:
        Whether the DSM tier participates in the greedy spill.  Baselines
        that predate clusters (Chimera, BOLT, Welder) set this to ``False``.
    register_reserve_fraction:
        Fraction of the register file reserved for the mainloop working set.
    smem_reserve_bytes:
        SMEM held back for double-buffered operand staging.
    """

    def __init__(
        self,
        device: HardwareSpec,
        include_dsm: bool = True,
        register_reserve_fraction: float = 0.5,
        smem_reserve_bytes: int = 32 * 1024,
    ) -> None:
        self.device = device
        self.include_dsm = include_dsm and device.has_dsm
        self.register_reserve_fraction = register_reserve_fraction
        self.smem_reserve_bytes = smem_reserve_bytes
        # Hierarchy and budget construction are pure functions of the cluster
        # size; cache them because the search engine analyses tens of
        # thousands of candidates per chain.
        self._hierarchy_cache: Dict[int, object] = {}
        self._budget_cache: Dict[tuple, list] = {}

    # ------------------------------------------------------------------ #
    # Main entry point (Algorithm 1)
    # ------------------------------------------------------------------ #
    def analyze(
        self,
        chain: GemmChainSpec,
        schedule: LoopSchedule,
        tile: TileConfig,
        geometry: Optional[ClusterGeometry] = None,
        gated_sequential: bool = False,
    ) -> DataflowResult:
        """Analyse one candidate and return its data-movement breakdown."""
        geometry = geometry or ClusterGeometry.single_block()
        core = self.analyze_core(chain, schedule, tile, geometry)
        return self.assemble(chain, schedule, tile, geometry, core, gated_sequential)

    def analyze_core(
        self,
        chain: GemmChainSpec,
        schedule: LoopSchedule,
        tile: TileConfig,
        geometry: ClusterGeometry,
    ) -> SubchainAnalysis:
        """The kind-independent part of Algorithm 1 for one candidate.

        GEMM0 weight traffic is computed for a *single* branch; everything
        else (A/D/E traffic, the persistent-intermediate placement and its
        per-level reuse traffic, the partial-output cluster count) is the
        same for a standard and a gated chain of equal dimensions.
        """
        # ----- input/output tensors (Algorithm 1 lines 8-13) ----------- #
        a_traffic = io_tensor_traffic("A", chain, schedule, tile, geometry)
        b_unit_traffic = io_tensor_traffic(
            "B", chain, schedule, tile, geometry, branches=1
        )
        d_traffic = io_tensor_traffic("D", chain, schedule, tile, geometry)
        output_traffic = float(tensor_size_bytes("E", chain))

        # ----- persistent intermediate (lines 15-26) -------------------- #
        reused = reused_tensor_footprint(chain, schedule, tile, geometry)
        budgets = self._budgets_for(
            geometry.blocks_per_cluster if self.include_dsm else 1,
            self.include_dsm and geometry.uses_dsm,
        )
        placement = greedy_place(reused.tensor, reused.footprint_bytes, budgets)

        reuse_volumes: Dict[str, float] = {}
        for level_name, allocated in placement.allocations.items():
            if allocated <= 0:
                continue
            traffic = allocated * reused.reuse_traffic_per_byte
            if level_name == MemoryLevelName.GLOBAL:
                # A global spill costs an extra write to stage the data in
                # addition to the per-trip accesses.
                traffic += allocated
            reuse_volumes[level_name] = traffic

        return SubchainAnalysis(
            a_traffic=a_traffic,
            b_unit_traffic=b_unit_traffic,
            d_traffic=d_traffic,
            output_traffic=output_traffic,
            reused=reused,
            placement=placement,
            reuse_volumes=reuse_volumes,
            clusters_per_output=self._clusters_per_output(
                chain, schedule, tile, geometry
            ),
            feasible=not placement.spills_to_global,
        )

    def assemble(
        self,
        chain: GemmChainSpec,
        schedule: LoopSchedule,
        tile: TileConfig,
        geometry: ClusterGeometry,
        core: SubchainAnalysis,
        gated_sequential: bool = False,
    ) -> DataflowResult:
        """Rebuild the full :class:`DataflowResult` from an analysis core.

        Adds back exactly the kind-dependent pieces: the GEMM0 branch
        factor on the B traffic and the dsm_comm plan (which depends on
        the gated-sequential flag).  Scaling ``b_unit_traffic`` by the
        branch count is bit-identical to sizing B with both branches up
        front — the count is a power of two, so the multiplication is
        exact and commutes with the traffic factor.
        """
        cluster_blocks = geometry.blocks_per_cluster
        hierarchy = self._hierarchy_for(cluster_blocks if self.include_dsm else 1)

        volumes: Dict[str, float] = {name: 0.0 for name in hierarchy.names()}
        volumes.setdefault(MemoryLevelName.GLOBAL, 0.0)

        b_traffic = core.b_unit_traffic * chain.num_gemm0_branches
        input_traffic = (core.a_traffic + b_traffic) + core.d_traffic
        volumes[MemoryLevelName.GLOBAL] += input_traffic + core.output_traffic
        # Streamed operands pass through SMEM staging buffers on their way
        # to the tensor cores.
        if MemoryLevelName.SMEM in volumes:
            volumes[MemoryLevelName.SMEM] += input_traffic

        mapping = ResourceMapping()
        mapping.add(core.placement)
        for level_name, traffic in core.reuse_volumes.items():
            volumes[level_name] = volumes.get(level_name, 0.0) + traffic

        # ----- dsm_comm collectives ------------------------------------- #
        comm_plan = CommPlan.build(
            chain,
            geometry,
            clusters_per_output=core.clusters_per_output,
            gated_sequential=gated_sequential,
        )
        if self.include_dsm and geometry.uses_dsm:
            volumes[MemoryLevelName.DSM] = (
                volumes.get(MemoryLevelName.DSM, 0.0) + comm_plan.dsm_bytes()
            )
        else:
            # Without DSM the same exchanges would have to round-trip
            # through global memory.
            volumes[MemoryLevelName.GLOBAL] += 2.0 * comm_plan.dsm_bytes()
        volumes[MemoryLevelName.GLOBAL] += comm_plan.inter_cluster_bytes()

        return DataflowResult(
            chain=chain,
            schedule=schedule,
            tile=tile,
            geometry=geometry,
            volumes=volumes,
            mapping=mapping,
            reused=core.reused,
            comm_plan=comm_plan,
            feasible=core.feasible,
        )

    # ------------------------------------------------------------------ #
    # Algorithm 1 over arrays of cells
    # ------------------------------------------------------------------ #
    def analyze_cells(
        self,
        chain: GemmChainSpec,
        schedules: Sequence[LoopSchedule],
        geometries: Sequence[ClusterGeometry],
        tiles: Sequence[TileConfig],
        cells: np.ndarray,
        gated_modes: Sequence[bool] = (False,),
    ) -> CellAnalysis:
        """:meth:`analyze` of every ``(schedule, geometry, tile)`` cell.

        ``cells`` holds component indices into the three lists, one row per
        cell.  Each step restates its scalar counterpart over the cells —
        :func:`~repro.dataflow.footprint.io_tensor_traffic`,
        :func:`~repro.dataflow.footprint.reused_tensor_footprint`,
        :func:`~repro.dataflow.resource_map.greedy_place` as a clip of the
        footprint against each geometry's budget row, then :meth:`assemble`
        — with the same float operations in the same order, so the volumes
        are bit-identical.  Adding ``0.0`` leaves a float unchanged, which
        lets the terms the scalar path skips be added as zeros.
        :meth:`CommPlan.build` runs once per distinct (geometry,
        ``clusters_per_output``, gated mode).
        """
        sizes = chain.dimension_sizes()
        extents = np.array([sizes[dim] for dim in _DIMS], dtype=np.int64)
        s, g, t = np.asarray(cells, dtype=np.int64).reshape(-1, 3).T
        spatial = np.array(
            [[schedule.is_spatial(dim) for dim in _DIMS] for schedule in schedules],
            dtype=bool,
        ).reshape(-1, 4)[s]
        cls = np.array([geo.as_tuple() for geo in geometries], dtype=np.int64)[g]
        blocks = np.array(
            [[tile.block_of(dim) for dim in _DIMS] for tile in tiles], dtype=np.int64
        ).reshape(-1, 4)[t]
        cluster = blocks * cls
        # temporal_trip_count: one trip per spatial dimension.
        trips = np.where(spatial, 1, np.maximum(1, -(-extents // cluster)))
        trips_f = trips.astype(np.float64)
        m_trips, n_trips, l_trips = trips[:, 0], trips[:, 1], trips[:, 3]

        # ----- input/output tensors (io_tensor_traffic) ----------------- #
        a_traffic = float(tensor_size_bytes("A", chain)) * trips_f[:, 1]
        b_unit_size = float(tensor_size_bytes("B", chain, branches=1))
        b_unit_traffic = b_unit_size * trips_f[:, 0]
        d_traffic = float(tensor_size_bytes("D", chain)) * trips_f[:, 0]
        output_traffic = float(tensor_size_bytes("E", chain))

        # ----- persistent intermediate (reused_tensor_footprint) -------- #
        m_tile = np.minimum(cluster[:, 0], sizes["m"])
        itemsize = chain.itemsize
        c_tile = m_tile * np.minimum(cluster[:, 1], sizes["n"]) * itemsize
        e_tile = m_tile * np.minimum(cluster[:, 3], sizes["l"]) * ACCUMULATOR_ITEMSIZE
        n_temporal, l_temporal = ~spatial[:, 1], ~spatial[:, 3]
        both = n_temporal & l_temporal
        l_outer = np.array(
            [
                schedule.is_temporal("n")
                and schedule.is_temporal("l")
                and schedule.is_outer_than("l", "n")
                for schedule in schedules
            ],
            dtype=bool,
        ).reshape(-1)[s]
        c_row = both & l_outer
        e_row = both & ~l_outer
        footprint = np.select(
            [c_row, e_row, n_temporal & ~l_temporal],
            [
                m_tile * sizes["n"] * itemsize,
                m_tile * sizes["l"] * ACCUMULATOR_ITEMSIZE,
                e_tile,
            ],
            c_tile,
        )
        # C is re-read once per l trip, partial E read-modified-written once
        # per n trip; with both spatial nothing is re-read.
        reuse_per_byte = np.select(
            [c_row | (~n_temporal & l_temporal), e_row | (n_temporal & ~l_temporal)],
            [l_trips, 2 * n_trips],
            1,
        )

        # ----- greedy spill (greedy_place) ------------------------------ #
        budgets, staged, dsm_on = (
            per_geometry[g] for per_geometry in self._geometry_rows(geometries)
        )
        remaining = footprint.astype(np.float64)
        allocations = np.empty((len(remaining), 4), dtype=np.float64)
        for level in range(4):
            allocations[:, level] = np.minimum(remaining, budgets[:, level])
            remaining = remaining - allocations[:, level]
        reuse = allocations * reuse_per_byte[:, None]
        # A global spill costs an extra write to stage the data.
        reuse[:, 3] += allocations[:, 3]

        # ----- assemble ------------------------------------------------- #
        input_traffic = (
            a_traffic + b_unit_traffic * chain.num_gemm0_branches
        ) + d_traffic
        smem = np.where(staged, input_traffic, 0.0) + reuse[:, 1]
        base_global = (input_traffic + output_traffic) + reuse[:, 3]

        # ----- dsm_comm collectives (CommPlan.build) -------------------- #
        clusters_per_output = np.where(
            spatial[:, 1], np.maximum(1, -(-sizes["n"] // cluster[:, 1])), 1
        )
        stride = int(clusters_per_output.max(initial=0)) + 1
        keys, inverse = np.unique(
            g * stride + clusters_per_output, return_inverse=True
        )
        comm = np.array(
            [
                [
                    _comm_bytes(chain, geometries[key // stride], key % stride, mode)
                    for mode in gated_modes
                ]
                for key in keys.tolist()
            ],
            dtype=np.float64,
        ).reshape(len(keys), len(gated_modes), 2)[inverse.reshape(-1)]
        dsm_bytes, inter_bytes = comm[:, :, 0], comm[:, :, 1]
        on = dsm_on[:, None]
        volumes = np.empty((len(remaining), len(gated_modes), 4), dtype=np.float64)
        volumes[:, :, 0] = reuse[:, 0, None]
        volumes[:, :, 1] = smem[:, None]
        volumes[:, :, 2] = reuse[:, 2, None] + np.where(on, dsm_bytes, 0.0)
        # Without DSM the exchanges round-trip through global memory.
        volumes[:, :, 3] = (
            base_global[:, None] + np.where(on, 0.0, 2.0 * dsm_bytes)
        ) + inter_bytes

        return CellAnalysis(
            spatial=spatial,
            blocks=blocks,
            cls=cls,
            a_traffic=a_traffic,
            b_unit_traffic=b_unit_traffic,
            d_traffic=d_traffic,
            output_traffic=output_traffic,
            footprint_bytes=footprint,
            reuse_traffic_per_byte=reuse_per_byte,
            allocations=allocations,
            clusters_per_output=clusters_per_output,
            feasible=allocations[:, 3] <= 0,
            volumes=volumes,
        )

    def _geometry_rows(
        self, geometries: Sequence[ClusterGeometry]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-geometry spill budgets, SMEM staging and DSM use, as arrays.

        The budgets are one row of :data:`VOLUME_LEVELS` columns per
        geometry: absent levels budget zero bytes (the greedy spill places
        nothing there) and global memory is unbounded.  The flags say
        whether the hierarchy stages streamed operands in SMEM and whether
        the dsm_comm traffic travels over DSM.
        """
        budgets = np.zeros((len(geometries), 4), dtype=np.float64)
        budgets[:, 3] = float("inf")
        staged = np.zeros(len(geometries), dtype=bool)
        dsm_on = np.zeros(len(geometries), dtype=bool)
        for row, geometry in enumerate(geometries):
            cluster_blocks = geometry.blocks_per_cluster if self.include_dsm else 1
            uses_dsm = self.include_dsm and geometry.uses_dsm
            dsm_on[row] = uses_dsm
            for budget in self._budgets_for(cluster_blocks, uses_dsm):
                if budget.name != MemoryLevelName.GLOBAL:
                    budgets[row, VOLUME_LEVELS.index(budget.name)] = (
                        budget.capacity_bytes
                    )
            hierarchy = self._hierarchy_for(cluster_blocks)
            staged[row] = hierarchy.has(MemoryLevelName.SMEM)
        return budgets, staged, dsm_on

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _hierarchy_for(self, cluster_blocks: int):
        """Memory hierarchy specialised to one cluster size (cached)."""
        if cluster_blocks not in self._hierarchy_cache:
            self._hierarchy_cache[cluster_blocks] = (
                self.device.memory_hierarchy_for_cluster(cluster_blocks)
            )
        return self._hierarchy_cache[cluster_blocks]

    def _budgets_for(self, cluster_blocks: int, include_dsm: bool):
        """Spill budgets for one cluster size (cached)."""
        key = (cluster_blocks, include_dsm)
        if key not in self._budget_cache:
            self._budget_cache[key] = default_budgets(
                self._hierarchy_for(cluster_blocks),
                include_dsm=include_dsm,
                register_reserve_fraction=self.register_reserve_fraction,
                smem_reserve_bytes=self.smem_reserve_bytes,
            )
        return self._budget_cache[key]

    def _clusters_per_output(
        self,
        chain: GemmChainSpec,
        schedule: LoopSchedule,
        tile: TileConfig,
        geometry: ClusterGeometry,
    ) -> int:
        """How many clusters contribute partial sums to one output tile.

        When the GEMM1 reduction dimension ``n`` is spatial and its extent
        exceeds what one cluster covers, partial outputs from different
        clusters must be merged with the TMA-based inter-cluster reduce.
        """
        if not schedule.is_spatial("n"):
            return 1
        covered = tile.block_n * geometry.cls_n
        extent = chain.n
        return max(1, -(-extent // covered))


def _comm_bytes(
    chain: GemmChainSpec,
    geometry: ClusterGeometry,
    clusters_per_output: int,
    gated_sequential: bool,
) -> Tuple[float, float]:
    """``(dsm_bytes, inter_cluster_bytes)`` of one :class:`CommPlan`."""
    plan = CommPlan.build(
        chain,
        geometry,
        clusters_per_output=clusters_per_output,
        gated_sequential=gated_sequential,
    )
    return plan.dsm_bytes(), plan.inter_cluster_bytes()
