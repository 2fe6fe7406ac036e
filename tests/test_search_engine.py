"""Tests for the cost model, the search space and the search engine."""

import pytest

from repro.dataflow.analyzer import DataflowAnalyzer
from repro.dataflow.loop_schedule import LoopSchedule
from repro.dataflow.tiling import TileConfig
from repro.dsm_comm.geometry import ClusterGeometry
from repro.hardware.spec import h100_spec
from repro.ir.builders import build_standard_ffn
from repro.search.brute_force import BruteForceSearch
from repro.search.cost_model import CostModel
from repro.search.engine import SearchEngine
from repro.search.space import SearchSpace, initial_space_size
from repro.sim.engine import PerformanceSimulator


def _chain(m=128, n=512, k=256, l=256, name="engine-chain"):
    _, spec = build_standard_ffn(name, m=m, n=n, k=k, l=l)
    return spec


@pytest.fixture(scope="module")
def device():
    return h100_spec()


@pytest.fixture(scope="module")
def analyzer(device):
    return DataflowAnalyzer(device)


class TestCostModel:
    def test_bottleneck_is_max_stage(self, device, analyzer):
        chain = _chain()
        result = analyzer.analyze(
            chain,
            LoopSchedule.from_string("m", "nlk"),
            TileConfig(128, 128, 64, 128),
            ClusterGeometry(1, 2, 1, 2),
        )
        breakdown = CostModel(device).breakdown(result)
        assert breakdown.bottleneck_us == pytest.approx(
            max(max(breakdown.per_level_us.values()), breakdown.compute_us)
        )

    def test_more_traffic_costs_more(self, device, analyzer):
        schedule = LoopSchedule.from_string("m", "nlk")
        tile = TileConfig(128, 128, 64, 128)
        model = CostModel(device)
        small = analyzer.analyze(_chain(n=512), schedule, tile, ClusterGeometry(1, 2, 1, 2))
        large = analyzer.analyze(_chain(n=2048), schedule, tile, ClusterGeometry(1, 2, 1, 2))
        assert model.evaluate(large) > model.evaluate(small)

    def test_predicted_tflops_positive(self, device, analyzer):
        result = analyzer.analyze(
            _chain(), LoopSchedule.from_string("m", "nlk"), TileConfig(128, 128, 64, 128)
        )
        model = CostModel(device)
        assert model.predicted_tflops(result) > 0

    def test_invalid_efficiency_rejected(self, device):
        with pytest.raises(ValueError):
            CostModel(device, compute_efficiency=0.0)


class TestSearchSpace:
    def test_initial_space_size_matches_paper_order_of_magnitude(self, device):
        chain = _chain(m=256, n=16384, k=4096, l=4096)
        size = initial_space_size(chain, device)
        assert 1e13 < size < 1e14  # the paper reports ~2.75e13

    def test_candidate_count_matches_estimate(self, device):
        space = SearchSpace(device, max_tile=128)
        chain = _chain()
        assert space.size_estimate(chain) == len(list(space.candidates(chain)))

    def test_no_cluster_space_has_single_geometry(self, device):
        space = SearchSpace(device, include_clusters=False)
        assert len(space.geometries()) == 1
        assert space.geometries()[0].blocks_per_cluster == 1

    def test_gated_chain_doubles_candidates(self, device):
        from repro.ir.builders import build_gated_ffn

        space = SearchSpace(device, max_tile=128)
        _, gated = build_gated_ffn("g", 128, 512, 256, 256)
        standard = _chain()
        assert space.size_estimate(gated) == 2 * space.size_estimate(standard)

    def test_irregular_extent_keeps_small_tiles(self, device):
        space = SearchSpace(device, max_tile=128, min_tile=64)
        chain = _chain(m=196)
        m_tiles = {t.block_m for t in space.tiles(chain)}
        assert 16 in m_tiles


class TestSearchEngine:
    def test_search_finds_feasible_plan(self, device):
        engine = SearchEngine(device, top_k=5)
        result = engine.search(_chain())
        assert result.succeeded
        assert result.best.result.feasible
        assert result.candidates_analyzed > 0

    def test_top_k_sorted_by_cost(self, device):
        engine = SearchEngine(device, top_k=5)
        result = engine.search(_chain())
        costs = [plan.predicted_cost_us for plan in result.top_k]
        assert costs == sorted(costs)

    def test_profiler_reorders_by_measured_time(self, device):
        simulator = PerformanceSimulator(device)
        engine = SearchEngine(device, top_k=5, profiler=simulator.profile)
        result = engine.search(_chain())
        times = [plan.profiled_time_us for plan in result.top_k]
        assert all(t is not None for t in times)
        assert times == sorted(times)

    def test_large_chain_needs_dsm(self, device):
        chain = _chain(n=16384, k=4096, l=4096, name="large")
        with_dsm = SearchEngine(device, top_k=3, include_dsm=True).search(chain)
        without_dsm = SearchEngine(device, top_k=3, include_dsm=False).search(chain)
        assert with_dsm.succeeded
        best_geometry = with_dsm.best.candidate.geometry
        assert best_geometry.blocks_per_cluster > 1
        if without_dsm.succeeded:
            # If SMEM-only fusion exists at all it must move more global data.
            assert (
                without_dsm.best.result.global_bytes
                >= with_dsm.best.result.global_bytes
            )

    def test_pruning_stats_populated(self, device):
        engine = SearchEngine(device, top_k=3)
        result = engine.search(_chain())
        assert result.pruning_stats.initial > result.pruning_stats.final > 0

    def test_invalid_top_k_rejected(self, device):
        with pytest.raises(ValueError):
            SearchEngine(device, top_k=0)


class TestBruteForce:
    def test_brute_force_finds_plan_and_counts_candidates(self, device):
        simulator = PerformanceSimulator(device)
        space = SearchSpace(device, max_tile=128)
        brute = BruteForceSearch(device, profiler=simulator.profile, space=space, max_candidates=200)
        result = brute.search(_chain())
        assert result.succeeded
        assert 0 < result.candidates_profiled <= 200

    def test_engine_matches_brute_force_quality(self, device):
        simulator = PerformanceSimulator(device)
        space = SearchSpace(device, max_tile=128)
        chain = _chain()
        engine_best = SearchEngine(
            device, top_k=11, profiler=simulator.profile, space=space
        ).search(chain)
        brute_best = BruteForceSearch(device, profiler=simulator.profile, space=space).search(chain)
        assert engine_best.best.best_known_time_us <= 1.15 * brute_best.best.best_known_time_us

    def test_profiling_overhead_accounted(self, device):
        simulator = PerformanceSimulator(device)
        space = SearchSpace(device, max_tile=128)
        brute = BruteForceSearch(
            device,
            profiler=simulator.profile,
            space=space,
            profiling_overhead_s=0.01,
            max_candidates=50,
        )
        result = brute.search(_chain())
        assert result.search_time_s >= 0.01 * result.candidates_profiled
