"""Table III: how the pruning cascade shrinks the search space.

The paper counts candidates for a GPT-6.7B-sized problem
(M=256, N=16384, K=L=4096): the unpruned space holds ~2.75e13 points, Rule 1
(divisible tiles) removes >99.99 %, and Rules 2-5 cut the remainder to ~1e6.

Enumerating 1e13 candidates is obviously impossible, so the counts are
computed with the same factorisation the paper uses: schedules x cluster
shapes are enumerated exactly, and the tile dimensions that a rule does not
constrain contribute a closed-form factor.  Per schedule, the rules run as
numpy masks over the (cluster shape, m/n/l tile) grid.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.dataflow.loop_schedule import count_schedules, enumerate_schedules
from repro.dataflow.tiling import TileConfig
from repro.dsm_comm.geometry import ClusterGeometry
from repro.experiments.common import format_table
from repro.hardware.spec import HardwareSpec, h100_spec
from repro.ir.builders import build_standard_ffn
from repro.ir.graph import GemmChainSpec
from repro.search.pruning import Pruner, persistence_class, reused_footprints
from repro.search.space import FusionCandidate, initial_space_size

#: Paper's candidate counts for reference.
PAPER_COUNTS = {
    "original": 2.75e13,
    "rule1": 1.14e8,
    "rule2": 2.47e7,
    "rule3": 1.44e7,
    "rule4": 9.62e6,
    "rule5": 1.15e6,
}


def gpt_6_7b_chain(m: int = 256) -> GemmChainSpec:
    """The GPT-6.7B FFN problem used for the pruning analysis."""
    _, spec = build_standard_ffn("GPT-6.7B-prune", m=m, n=16384, k=4096, l=4096)
    return spec


def _divisor_tiles(extent: int, mma: int = 16) -> List[int]:
    """MMA-granular tile sizes that divide ``extent`` exactly."""
    return [t for t in range(mma, extent + 1, mma) if extent % t == 0]


def pruning_counts(
    chain: Optional[GemmChainSpec] = None,
    device: Optional[HardwareSpec] = None,
    mma: int = 16,
) -> Dict[str, float]:
    """Exact candidate counts after each step, keyed like :data:`PAPER_COUNTS`."""
    device = device or h100_spec()
    chain = chain or gpt_6_7b_chain()
    pruner = Pruner(device)
    sizes = chain.dimension_sizes()
    options = {
        dim: np.array(_divisor_tiles(extent, mma), dtype=np.int64)
        for dim, extent in sizes.items()
    }
    tile_count = _product(len(options[d]) for d in sizes)
    raw_cluster_count = len(device.cluster_limits.allowed_dim_sizes) ** 4
    schedules = enumerate_schedules()

    counts = {
        "original": initial_space_size(chain, device, mma=mma),
        # Rule 1 constrains only the tile sizes; schedules and raw cluster
        # shapes are unaffected.
        "rule1": float(count_schedules()) * raw_cluster_count * tile_count,
    }

    # Rule 2 depends on the cluster shape alone.  Rules 3-5 are counted per
    # schedule as masks over (geometry, m tile, n tile, l tile); Rule 3
    # constrains only the k tile and no later rule reads it, so k enters as
    # a per-geometry factor.
    geometries = [
        geometry
        for geometry in ClusterGeometry.enumerate(
            device.cluster_limits, validate=False
        )
        if pruner.rule2_cluster_size(_candidate(chain, schedules[0], geometry))
    ]
    counts["rule2"] = float(len(schedules) * len(geometries)) * tile_count
    cls = np.array([g.as_tuple() for g in geometries], dtype=np.int64).reshape(-1, 4)
    cls_m, cls_n, cls_k, cls_l = (cls[:, i, None] for i in range(4))
    k_covered = (options["k"] * cls_k >= sizes["k"]).sum(axis=1)
    l_covered = options["l"] * cls_l >= sizes["l"]
    # Rule 5 footprints never depend on the k tile; broadcast to
    # (geometry, m, n, l) and compared with each geometry's capacity.
    footprints = reused_footprints(
        chain,
        (options["m"] * cls_m)[:, :, None, None],
        (options["n"] * cls_n)[:, None, :, None],
        (options["l"] * cls_l)[:, None, None, :],
    )
    capacity = np.array(
        [
            pruner._on_chip_capacity(
                g.blocks_per_cluster if pruner.include_dsm else 1,
                pruner.include_dsm and g.uses_dsm,
            )
            for g in geometries
        ]
    ).reshape(-1, 1, 1, 1)
    grid = (len(geometries), len(options["m"]), len(options["n"]), len(options["l"]))
    fits = {
        kind: np.broadcast_to(footprint <= capacity, grid)
        for kind, footprint in footprints.items()
    }

    rule3 = rule4 = rule5 = 0
    mn_tiles = len(options["m"]) * len(options["n"])
    all_l = np.ones_like(l_covered)
    for schedule in schedules:
        if schedule.is_temporal("k"):
            innermost = schedule.innermost() == "k"
            k_tiles = np.full(len(geometries), len(options["k"]) if innermost else 0)
        else:
            k_tiles = k_covered
        l_tiles = l_covered if schedule.is_spatial("l") else all_l
        rule3 += int(k_tiles.sum()) * mn_tiles * len(options["l"])
        rule4 += int((k_tiles * l_tiles.sum(axis=1)).sum()) * mn_tiles
        kept = fits[persistence_class(schedule)] & l_tiles[:, None, None, :]
        rule5 += int((k_tiles * kept.sum(axis=(1, 2, 3))).sum())
    counts.update(rule3=float(rule3), rule4=float(rule4), rule5=float(rule5))
    return counts


def run(
    chain: Optional[GemmChainSpec] = None,
    device: Optional[HardwareSpec] = None,
    mma: int = 16,
) -> List[Dict[str, object]]:
    """Candidate counts after each pruning rule."""
    counts = pruning_counts(chain, device, mma)
    rows: List[Dict[str, object]] = []
    previous = None
    for step, key in [
        ("Original Space", "original"),
        ("+ Rule 1 (divisible tiles)", "rule1"),
        ("+ Rule 2 (cluster size)", "rule2"),
        ("+ Rule 3 (activation)", "rule3"),
        ("+ Rule 4 (dependency)", "rule4"),
        ("+ Rule 5 (memory capacity)", "rule5"),
    ]:
        count = counts[key]
        reduction = 0.0 if previous in (None, 0) else (1.0 - count / previous) * 100.0
        rows.append(
            {
                "pruning_step": step,
                "candidates": f"{count:.3g}",
                "reduction_percent": round(reduction, 2),
                "paper_candidates": f"{PAPER_COUNTS[key]:.3g}",
            }
        )
        previous = count
    return rows


# ------------------------------------------------------------------------- #
# Helpers
# ------------------------------------------------------------------------- #
def _product(values) -> float:
    result = 1.0
    for value in values:
        result *= value
    return result


def _candidate(chain, schedule, geometry):
    tile = TileConfig(16, 16, 16, 16)
    return FusionCandidate(chain=chain, schedule=schedule, tile=tile, geometry=geometry)


def main() -> None:
    """Print Table III."""
    print("Table III: pruning cascade for GPT-6.7B (M=256, N=16384, K=L=4096)")
    print(format_table(run()))


if __name__ == "__main__":
    main()
