"""Search-space construction and candidate enumeration.

The initial space (Section IV-C2) is the cross product of

* 41 loop schedules (Table IV),
* 5^4 per-dimension cluster sizes drawn from {1, 2, 4, 8, 16}, and
* all block tile sizes that are multiples of the 16x16x16 MMA granularity,

which for GPT-6.7B-sized problems reaches ~2.75e13 candidates (Table III's
first row).  :func:`initial_space_size` reproduces that count analytically;
:class:`SearchSpace` lazily enumerates a tractable, hardware-aware subset
(power-of-two tiles) that the pruning rules then filter; its per-axis lists
(:class:`SpaceComponents`) are what the vectorised cascade prunes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.dataflow.loop_schedule import (
    LoopSchedule,
    count_schedules,
    enumerate_schedules,
)
from repro.dataflow.tiling import TileConfig, candidate_tile_sizes
from repro.dsm_comm.geometry import ClusterGeometry
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import ChainKind, GemmChainSpec


@dataclass(frozen=True)
class FusionCandidate:
    """One point of the search space.

    Parameters
    ----------
    chain:
        The fused chain being compiled.
    schedule:
        Spatial/temporal loop schedule.
    tile:
        Block tile sizes.
    geometry:
        Per-dimension cluster sizes.
    gated_sequential:
        For gated FFNs, whether the two branches run sequentially within a
        block (doubled K) instead of spatially across the cls_k partition.
    """

    chain: GemmChainSpec
    schedule: LoopSchedule
    tile: TileConfig
    geometry: ClusterGeometry
    gated_sequential: bool = False

    def label(self) -> str:
        """Readable description used in logs and experiment reports."""
        cluster = "x".join(str(v) for v in self.geometry.as_tuple())
        tiles = "x".join(str(self.tile.block_of(d)) for d in ("m", "n", "k", "l"))
        return f"{self.schedule.label()} cls[{cluster}] blk[{tiles}]"


def initial_space_size(
    chain: GemmChainSpec,
    device: HardwareSpec,
    mma: int = 16,
) -> float:
    """Size of the unpruned search space (Table III, "Original Space").

    The count multiplies the number of loop schedules, the raw cluster-size
    combinations and the number of MMA-granular tile choices per dimension
    (``extent / 16`` each).
    """
    schedules = count_schedules(num_dims=4, min_spatial=1)
    cluster_choices = len(device.cluster_limits.allowed_dim_sizes) ** 4
    tile_choices = 1.0
    for extent in chain.dimension_sizes().values():
        tile_choices *= max(1, extent // mma)
    return float(schedules) * cluster_choices * tile_choices


class SearchSpace:
    """Lazy enumeration of fusion candidates for one chain.

    Parameters
    ----------
    device:
        Target hardware (supplies cluster limits).
    max_tile:
        Largest block tile extent considered per dimension.
    powers_of_two_only:
        Restrict block tiles to power-of-two multiples of the MMA size,
        matching the shapes CUTLASS mainloops instantiate.
    include_clusters:
        When ``False`` only the degenerate single-block geometry is
        enumerated (used by non-DSM baselines).
    """

    def __init__(
        self,
        device: HardwareSpec,
        max_tile: int = 256,
        powers_of_two_only: bool = True,
        include_clusters: bool = True,
        min_tile: int = 64,
        prevalidate_geometries: bool = True,
    ) -> None:
        self.device = device
        self.max_tile = max_tile
        self.powers_of_two_only = powers_of_two_only
        self.include_clusters = include_clusters
        self.min_tile = min_tile
        self.prevalidate_geometries = prevalidate_geometries

    # ------------------------------------------------------------------ #
    # Component enumerations
    # ------------------------------------------------------------------ #
    def schedules(self) -> List[LoopSchedule]:
        """The 41 loop schedules of Table IV."""
        return enumerate_schedules()

    def geometries(self) -> List[ClusterGeometry]:
        """Cluster geometries drawn from the allowed per-dimension sizes.

        With ``prevalidate_geometries`` (the default) geometries that violate
        the hardware block-per-cluster limit are skipped up front — they
        would be discarded by pruning Rule 2 anyway, and skipping them keeps
        the enumeration tractable.
        """
        if not self.include_clusters or not self.device.has_dsm:
            return [ClusterGeometry.single_block()]
        return list(
            ClusterGeometry.enumerate(
                self.device.cluster_limits, validate=self.prevalidate_geometries
            )
        )

    def tiles(self, chain: GemmChainSpec) -> List[TileConfig]:
        """Candidate block tiles for one chain."""
        mma = self.device.cluster_limits.mma_tile[0]
        options = {}
        for dim, extent in chain.dimension_sizes().items():
            sizes = candidate_tile_sizes(
                extent,
                mma=mma,
                max_tile=self.max_tile,
                powers_of_two_only=self.powers_of_two_only,
            )
            if extent % self.min_tile == 0:
                # Regular extents: skip the smallest tiles, they are never
                # competitive and only blow up the search.
                sizes = [size for size in sizes if size >= min(self.min_tile, extent)]
            # Irregular extents (e.g. the M of im2col conv chains) keep the
            # small tiles so a low-padding-waste choice exists.
            options[dim] = sizes
        tiles = []
        for block_m in options["m"]:
            for block_n in options["n"]:
                for block_k in options["k"]:
                    for block_l in options["l"]:
                        tiles.append(TileConfig(block_m, block_n, block_k, block_l))
        return tiles

    # ------------------------------------------------------------------ #
    # Candidate enumeration
    # ------------------------------------------------------------------ #
    def candidates(self, chain: GemmChainSpec) -> Iterator[FusionCandidate]:
        """Yield every candidate of the (restricted) initial space."""
        gated_modes: Tuple[bool, ...] = (False,)
        if chain.kind is ChainKind.GATED_FFN:
            gated_modes = (False, True)
        schedules = self.schedules()
        geometries = self.geometries()
        tiles = self.tiles(chain)
        for schedule in schedules:
            for geometry in geometries:
                for tile in tiles:
                    for gated_sequential in gated_modes:
                        yield FusionCandidate(
                            chain=chain,
                            schedule=schedule,
                            tile=tile,
                            geometry=geometry,
                            gated_sequential=gated_sequential,
                        )

    def components(self, chain: GemmChainSpec) -> "SpaceComponents":
        """The materialised component lists behind :meth:`candidates`."""
        gated_modes: Tuple[bool, ...] = (False,)
        if chain.kind is ChainKind.GATED_FFN:
            gated_modes = (False, True)
        return SpaceComponents(
            schedules=self.schedules(),
            geometries=self.geometries(),
            tiles=self.tiles(chain),
            gated_modes=gated_modes,
        )

    def size_estimate(self, chain: GemmChainSpec) -> int:
        """Number of candidates :meth:`candidates` will yield."""
        gated_factor = 2 if chain.kind is ChainKind.GATED_FFN else 1
        return (
            len(self.schedules())
            * len(self.geometries())
            * len(self.tiles(chain))
            * gated_factor
        )


@dataclass
class SpaceComponents:
    """The per-axis choice lists of one chain's search space.

    The enumeration index of a candidate decomposes over these lists as
    ``((schedule * |geometries| + geometry) * |tiles| + tile) * |gated|
    + gated`` — the exact nesting order of :meth:`SearchSpace.candidates`.
    """

    schedules: List[LoopSchedule]
    geometries: List[ClusterGeometry]
    tiles: List[TileConfig]
    gated_modes: Tuple[bool, ...]

    @property
    def size(self) -> int:
        """Total number of candidates the components span."""
        return (
            len(self.schedules)
            * len(self.geometries)
            * len(self.tiles)
            * len(self.gated_modes)
        )

    def decompose(self, index: int) -> Tuple[int, int, int, int]:
        """Component indices ``(schedule, geometry, tile, gated)`` at ``index``.

        The enumeration-order contract: the pruning cascade's survivor
        indices (:meth:`~repro.search.pruning.Pruner.cascade`) follow the
        nesting of :meth:`SearchSpace.candidates`, and
        ``tests/test_search_cascade.py`` pins the two against each other.
        """
        remainder, gated_index = divmod(index, len(self.gated_modes))
        remainder, tile_index = divmod(remainder, len(self.tiles))
        schedule_index, geometry_index = divmod(remainder, len(self.geometries))
        return schedule_index, geometry_index, tile_index, gated_index
