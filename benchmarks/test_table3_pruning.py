"""Benchmark: regenerate Table III (pruning cascade candidate counts)."""

import itertools

from repro.dataflow.loop_schedule import enumerate_schedules
from repro.dataflow.tiling import TileConfig
from repro.dsm_comm.geometry import ClusterGeometry
from repro.experiments import table3_pruning
from repro.hardware.spec import h100_spec
from repro.ir.builders import build_standard_ffn
from repro.search.pruning import Pruner
from repro.search.space import FusionCandidate

#: Exact counts for the GPT-6.7B problem (M=256, N=16384, K=L=4096) on the
#: H100 model, after each step of the cascade.
EXPECTED_COUNTS = {
    "original": 27514634240000.0,
    "rule1": 114159375.0,
    "rule2": 12785850.0,
    "rule3": 4116420.0,
    "rule4": 2799720.0,
    "rule5": 1719148.0,
}


def test_table3_pruning(benchmark):
    rows = benchmark.pedantic(table3_pruning.run, rounds=1, iterations=1)
    counts = [float(row["candidates"]) for row in rows]
    # The cascade is monotone and achieves the paper's overall shape: an
    # initial space of ~1e13 cut by more than 99.99 % overall, with Rule 1
    # alone removing the overwhelming majority.
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 1e13
    assert counts[1] < 1e9
    assert counts[-1] < 1e8
    assert counts[-1] / counts[0] < 1e-4


def test_table3_counts_are_pinned():
    assert table3_pruning.pruning_counts() == EXPECTED_COUNTS


def test_counts_match_the_scalar_rules():
    # The masks against Pruner's scalar Rules 2-5, one candidate at a time,
    # on a chain small enough to enumerate whose Rule 5 still prunes.
    device = h100_spec()
    chain = build_standard_ffn("table3-small", m=64, n=8192, k=16, l=32)[1]
    pruner = Pruner(device)
    sizes = chain.dimension_sizes()
    options = [table3_pruning._divisor_tiles(sizes[dim]) for dim in "mnkl"]
    tiles = [TileConfig(*extents) for extents in itertools.product(*options)]
    rules = [
        pruner.rule3_activation,
        pruner.rule4_dependency,
        pruner.rule5_memory_capacity,
    ]
    surviving = [0, 0, 0, 0]
    for schedule in enumerate_schedules():
        for geometry in ClusterGeometry.enumerate(device.cluster_limits):
            # Rule 2 reads the cluster shape alone.
            if not pruner.rule2_cluster_size(
                FusionCandidate(chain, schedule, tiles[0], geometry)
            ):
                continue
            surviving[0] += len(tiles)
            for tile in tiles:
                candidate = FusionCandidate(chain, schedule, tile, geometry)
                for position, rule in enumerate(rules, start=1):
                    if not rule(candidate):
                        break
                    surviving[position] += 1
    counts = table3_pruning.pruning_counts(chain, device)
    assert [counts[f"rule{number}"] for number in (2, 3, 4, 5)] == surviving
    assert surviving[3] < surviving[2]
