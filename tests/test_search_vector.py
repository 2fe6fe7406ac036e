"""The array kernel against the scalar Algorithm 1 and cost model.

:func:`~repro.search.engine.score_cascade` analyses and prices every
survivor of the pruning cascade at once, as numpy arrays.  The scalar
:meth:`DataflowAnalyzer.analyze` and :meth:`CostModel.evaluate` of each
survivor are the oracle: for every survivor of all 26 suite chains at the
default configuration, and for hypothesis-drawn chains, the kernel's
per-level volumes, feasibility and cost must equal the oracle's under
``==``, not ``approx``.  The engine built on the kernel must select the
same top-K as a scalar search, and Rule 1's mask must equal
:meth:`Pruner.rule1_divisible_tiles` cell by cell.
:func:`~repro.search.engine.select_top_k` must keep the K smallest
``(cost, enumeration index)`` rows, whatever their order — the rule that
makes a search's top-K independent of how its rows were computed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.analyzer import VOLUME_LEVELS, DataflowAnalyzer
from repro.hardware.memory import MemoryLevelName
from repro.hardware.spec import h100_spec
from repro.ir.builders import build_gated_ffn, build_standard_ffn
from repro.ir.workloads import get_chain_spec
from repro.search.cost_model import CostModel
from repro.search.engine import (
    SearchEngine,
    profile_top_k,
    score_cascade,
    select_top_k,
)
from repro.search.pruning import Pruner
from repro.search.space import FusionCandidate, SearchSpace
from repro.sim.engine import PerformanceSimulator

SUITE = (
    [f"G{i}" for i in range(1, 11)]
    + [f"S{i}" for i in range(1, 9)]
    + [f"C{i}" for i in range(1, 9)]
)


@pytest.fixture(scope="module")
def device():
    return h100_spec()


def _standard(m=128, n=256, k=128, l=128, name="vector"):
    return build_standard_ffn(name, m=m, n=n, k=k, l=l)[1]


def _assert_kernel_matches_oracle(device, chain, space, include_dsm=True):
    """Every analysed row of the kernel equals the scalar oracle's."""
    analyzer = DataflowAnalyzer(device, include_dsm=include_dsm)
    cost_model = CostModel(device)
    cascade = Pruner(device, include_dsm=include_dsm).cascade(
        chain, space.components(chain)
    )
    scores = score_cascade(cascade, analyzer, cost_model)
    survivors = cascade.survivors()
    assert len(scores) == len(survivors)
    oracle = DataflowAnalyzer(device, include_dsm=include_dsm)
    volumes = scores.analysis.volumes.reshape(len(scores), len(VOLUME_LEVELS))
    cells = scores.analysis
    modes = len(cascade.components.gated_modes)
    core = None
    for row, (index, candidate) in enumerate(survivors):
        parts = (chain, candidate.schedule, candidate.tile, candidate.geometry)
        if row % modes == 0:
            # analyze() is assemble(analyze_core()); the gated modes of a
            # cell are adjacent rows and share the core.
            core = oracle.analyze_core(*parts)
        expected = oracle.assemble(*parts, core, candidate.gated_sequential)
        assert int(scores.index[row]) == index, candidate.label()
        assert volumes[row].tolist() == [
            expected.volumes.get(level, 0.0) for level in VOLUME_LEVELS
        ], candidate.label()
        # The kernel's columns are every level the analysis can charge.
        assert expected.volumes.get(MemoryLevelName.L2, 0.0) == 0.0
        assert set(expected.volumes) <= set(VOLUME_LEVELS) | {MemoryLevelName.L2}
        assert bool(scores.feasible[row]) == expected.feasible, candidate.label()
        cost = cost_model.evaluate(expected)
        assert float(scores.cost[row]) == cost, candidate.label()
        if row % modes:
            continue
        cell = row // modes
        assert cells.a_traffic[cell] == core.a_traffic
        assert cells.b_unit_traffic[cell] == core.b_unit_traffic
        assert cells.d_traffic[cell] == core.d_traffic
        assert cells.output_traffic == core.output_traffic
        assert cells.footprint_bytes[cell] == expected.reused.footprint_bytes
        assert (
            cells.reuse_traffic_per_byte[cell]
            == expected.reused.reuse_traffic_per_byte
        )
        assert (
            cells.clusters_per_output[cell] == expected.comm_plan.clusters_per_output
        )
        placement = expected.mapping.get(expected.reused.tensor)
        assert cells.allocations[cell].tolist() == [
            placement.allocated_bytes(level) for level in VOLUME_LEVELS
        ], candidate.label()
    return scores


@pytest.mark.parametrize("workload", SUITE)
def test_every_suite_survivor_matches_scalar_oracle(device, workload):
    _assert_kernel_matches_oracle(device, get_chain_spec(workload), SearchSpace(device))


def _oracle_search(engine, chain):
    """A scalar search: analyse, price and rank survivors one at a time."""
    cascade = Pruner(engine.device, include_dsm=engine.include_dsm).cascade(
        chain, engine.space.components(chain)
    )
    survivors = cascade.survivors()
    analyzer = DataflowAnalyzer(engine.device, include_dsm=engine.include_dsm)
    plans = []
    for index, candidate in survivors:
        result = analyzer.analyze(
            chain,
            candidate.schedule,
            candidate.tile,
            candidate.geometry,
            gated_sequential=candidate.gated_sequential,
        )
        if engine.require_feasible and not result.feasible:
            continue
        plans.append((engine.cost_model.evaluate(result), index, candidate, result))
    plans.sort(key=lambda plan: (plan[0], plan[1]))
    top_k = profile_top_k(plans[: engine.top_k], engine.profiler)
    return cascade, len(survivors), top_k


def _assert_engine_matches_oracle(engine, chain):
    result = engine.search(chain)
    cascade, analyzed, top_k = _oracle_search(engine, chain)
    assert result.candidates_enumerated == cascade.stats.initial
    assert result.candidates_analyzed == analyzed
    assert result.pruning_stats.surviving == cascade.stats.surviving
    assert len(result.top_k) == len(top_k)
    for ours, theirs in zip(result.top_k, top_k):
        assert ours.candidate == theirs.candidate
        assert ours.result == theirs.result
        assert ours.predicted_cost_us == theirs.predicted_cost_us
        assert ours.profiled_time_us == theirs.profiled_time_us
    assert result.succeeded == bool(top_k)
    return result


class TestEngineMatchesOracle:
    def test_standard_chain_matches_oracle(self, device):
        engine = SearchEngine(
            device,
            top_k=7,
            profiler=PerformanceSimulator(device).profile,
            space=SearchSpace(device, max_tile=128),
        )
        assert _assert_engine_matches_oracle(engine, _standard()).succeeded

    def test_gated_chain_matches_oracle(self, device):
        _, gated = build_gated_ffn("vector-gated", 128, 256, 128, 128)
        engine = SearchEngine(device, top_k=5, space=SearchSpace(device, max_tile=128))
        assert _assert_engine_matches_oracle(engine, gated).succeeded

    def test_no_dsm_space_matches_oracle(self, device):
        engine = SearchEngine(device, top_k=3, include_dsm=False)
        _assert_engine_matches_oracle(engine, _standard(name="vector-no-dsm"))

    @settings(max_examples=12, deadline=None)
    @given(
        m=st.sampled_from([49, 64, 128, 196, 256]),
        n=st.sampled_from([64, 128, 256, 512]),
        k=st.sampled_from([64, 128, 256]),
        l=st.sampled_from([64, 128, 256]),
        gated=st.booleans(),
        include_dsm=st.booleans(),
    )
    def test_drawn_chain_matches_oracle(self, m, n, k, l, gated, include_dsm):
        device = h100_spec()
        if gated:
            chain = build_gated_ffn("vector-draw", m, n, k, l)[1]
        else:
            chain = _standard(m=m, n=n, k=k, l=l, name="vector-draw")
        space = SearchSpace(device, max_tile=128)
        _assert_kernel_matches_oracle(device, chain, space, include_dsm)
        engine = SearchEngine(
            device,
            top_k=4,
            include_dsm=include_dsm,
            space=space,
            require_feasible=False,
        )
        _assert_engine_matches_oracle(engine, chain)


class TestRuleOneMask:
    @pytest.mark.parametrize("workload", ["C3", "C4", "C7", "C8"])
    def test_mask_matches_scalar_rule_on_irregular_conv_chains(self, device, workload):
        chain = get_chain_spec(workload)
        assert chain.m % 16 != 0
        components = SearchSpace(device).components(chain)
        pruner = Pruner(device)
        mask = pruner.rule1_mask(chain, components.geometries, components.tiles)
        probe = components.schedules[0]
        expected = [
            [
                pruner.rule1_divisible_tiles(
                    FusionCandidate(chain, probe, tile, geometry)
                )
                for tile in components.tiles
            ]
            for geometry in components.geometries
        ]
        assert mask.tolist() == expected
        assert not mask.all()


class TestTieBreakDeterminism:
    """The top-K step keeps the K smallest ``(cost, enumeration index)`` rows.

    Ties in cost go to the earlier enumeration index, whatever the order of
    the rows, and rows outside the mask (infeasible plans) never enter.
    """

    def test_all_ties_keep_earliest_candidates(self):
        index = np.array([9, 4, 7, 0, 2, 5])
        cost = np.full(len(index), 5.0)
        kept = select_top_k(cost, index, keep=4)
        assert index[kept].tolist() == [0, 2, 4, 5]

    def test_eviction_drops_latest_of_tied_worst(self):
        # Rows 0 and 1 tie at 5.0 and row 7 costs 3.0: with K=2 the kept
        # rows are 7 then 0, the later of the tied-worst (1) is dropped.
        index = np.arange(10)
        cost = np.full(10, 5.0)
        cost[7] = 3.0
        kept = select_top_k(cost, index, keep=2)
        assert kept.tolist() == [7, 0]
        assert cost[kept].tolist() == [3.0, 5.0]

    def test_masked_rows_never_enter(self):
        index = np.arange(6)
        cost = np.array([1.0, 2.0, 2.0, 0.5, 2.0, 3.0])
        feasible = np.array([True, True, True, False, True, True])
        assert select_top_k(cost, index, 3, feasible).tolist() == [0, 1, 2]
        assert select_top_k(cost, index, 3, np.zeros(6, dtype=bool)).size == 0
