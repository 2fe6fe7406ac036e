"""The dataflow analyzer (Algorithm 1).

Given one candidate — a loop schedule, block tile sizes and a cluster
geometry — the analyzer produces

* the per-memory-level data movement volume ``D_V`` (bytes moved through
  registers, SMEM, DSM and global memory),
* the greedy placement of the persistent intermediate across the hierarchy,
* the dsm_comm plan implied by the cluster geometry, and
* a feasibility verdict (whether the fusion stays on chip).

The fusion search engine calls this for every pruned candidate and feeds the
volumes into the minimax cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dataflow.footprint import (
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
