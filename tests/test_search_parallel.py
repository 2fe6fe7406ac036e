"""Parallel sharded search: equivalence with the serial engine.

The contract under test is strong: for the same chain and search
configuration, :class:`~repro.search.parallel.ParallelSearchEngine` must
return the *identical* best plan, top-K ordering, per-rule pruning counts
and candidate totals as the serial :class:`~repro.search.engine.SearchEngine`
— sharding may only change wall-clock.  The supporting bit-identical
batched scoring is tested individually as well.
"""

from __future__ import annotations

import pytest

from repro.api import FlashFuser
from repro.dataflow.analyzer import DataflowAnalyzer
from repro.hardware.spec import h100_spec
from repro.ir.builders import build_gated_ffn, build_standard_ffn
from repro.runtime.batch import BatchCompiler
from repro.search.cost_model import CostModel
from repro.search.engine import SearchEngine
from repro.search.parallel import ParallelSearchEngine
from repro.search.pruning import Pruner
from repro.search.space import SearchSpace
from repro.sim.engine import PerformanceSimulator


def _chain(m=128, n=256, k=128, l=128, name="par-chain"):
    _, spec = build_standard_ffn(name, m=m, n=n, k=k, l=l)
    return spec


@pytest.fixture(scope="module")
def device():
    return h100_spec()


@pytest.fixture(scope="module")
def simulator(device):
    return PerformanceSimulator(device)


def _space(device):
    return SearchSpace(device, max_tile=128)


def _assert_same_search(serial, parallel):
    assert serial.candidates_enumerated == parallel.candidates_enumerated
    assert serial.candidates_analyzed == parallel.candidates_analyzed
    assert serial.pruning_stats.initial == parallel.pruning_stats.initial
    assert serial.pruning_stats.surviving == parallel.pruning_stats.surviving
    assert len(serial.top_k) == len(parallel.top_k)
    for ours, theirs in zip(serial.top_k, parallel.top_k):
        assert ours.candidate == theirs.candidate
        assert ours.predicted_cost_us == theirs.predicted_cost_us
        assert ours.profiled_time_us == theirs.profiled_time_us
    assert serial.succeeded == parallel.succeeded
    if serial.succeeded:
        assert serial.best.candidate == parallel.best.candidate
        assert serial.best.predicted_cost_us == parallel.best.predicted_cost_us


class TestEvaluateBatch:
    def test_bitwise_identical_to_scalar_evaluate(self, device):
        space = _space(device)
        chain = _chain()
        pruner = Pruner(device)
        analyzer = DataflowAnalyzer(device)
        model = CostModel(device)
        survivors = []
        for candidate in pruner.prune(space.candidates(chain)):
            survivors.append(
                analyzer.analyze(
                    chain,
                    candidate.schedule,
                    candidate.tile,
                    candidate.geometry,
                    gated_sequential=candidate.gated_sequential,
                )
            )
            if len(survivors) >= 200:
                break
        assert survivors
        batched = model.evaluate_batch(survivors)
        scalar = [model.evaluate(result) for result in survivors]
        # Exact equality, not approx: the parallel engine's serial
        # reproducibility guarantee rests on bit-identical scores.
        assert batched.tolist() == scalar

    def test_empty_batch(self, device):
        assert CostModel(device).evaluate_batch([]).shape == (0,)


class _ScriptedCostModel(CostModel):
    """Deterministic cost script by analysis order, for tie-break tests."""

    def __init__(self, device, costs, default=5.0):
        super().__init__(device)
        self._costs = dict(costs)
        self._default = default
        self.calls = 0

    def evaluate(self, result):
        cost = self._costs.get(self.calls, self._default)
        self.calls += 1
        return cost


class TestTieBreakDeterminism:
    """The serial heap's tie handling is the contract the merge reproduces.

    Membership must be "the K lexicographically smallest (cost, analysis
    order) pairs" — in particular, evicting on a strictly better arrival
    must drop the *latest* of the tied-worst entries, and pure ties must
    keep the earliest arrivals.
    """

    def test_all_ties_keep_earliest_candidates(self, device):
        model = _ScriptedCostModel(device, {})
        engine = SearchEngine(
            device, top_k=4, space=_space(device), cost_model=model
        )
        result = engine.search(_chain(name="tie-all"))
        expected = _first_feasible(device, _chain(name="tie-all"), count=4)
        assert [plan.candidate for plan in result.top_k] == expected

    def test_eviction_drops_latest_of_tied_worst(self, device):
        # Feasible candidates 0 and 1 tie at 5.0; candidate 7 costs 3.0 and
        # must evict candidate 1 (the later of the tied-worst), keeping
        # {7, 0} — the two smallest (cost, order) pairs.
        model = _ScriptedCostModel(device, {7: 3.0})
        engine = SearchEngine(
            device, top_k=2, space=_space(device), cost_model=model
        )
        result = engine.search(_chain(name="tie-evict"))
        feasible = _first_feasible(device, _chain(name="tie-evict"), count=8)
        assert [plan.candidate for plan in result.top_k] == [feasible[7], feasible[0]]
        assert [plan.predicted_cost_us for plan in result.top_k] == [3.0, 5.0]


def _first_feasible(device, chain, count):
    """The first ``count`` feasible candidates in analysis order."""
    space = _space(device)
    pruner = Pruner(device)
    analyzer = DataflowAnalyzer(device)
    feasible = []
    for candidate in pruner.prune(space.candidates(chain)):
        result = analyzer.analyze(
            chain,
            candidate.schedule,
            candidate.tile,
            candidate.geometry,
            gated_sequential=candidate.gated_sequential,
        )
        if not result.feasible:
            continue
        feasible.append(candidate)
        if len(feasible) >= count:
            break
    assert len(feasible) >= count
    return feasible


class TestParallelSerialEquivalence:
    def test_inline_single_worker_matches_serial(self, device, simulator):
        chain = _chain()
        serial = SearchEngine(
            device, top_k=7, profiler=simulator.profile, space=_space(device)
        ).search(chain)
        parallel = ParallelSearchEngine(
            device,
            top_k=7,
            profiler=simulator.profile,
            space=_space(device),
            parallelism=1,
        ).search(chain)
        _assert_same_search(serial, parallel)

    def test_process_pool_matches_serial(self, device, simulator):
        chain = _chain(name="par-chain-pool")
        serial = SearchEngine(
            device, top_k=5, profiler=simulator.profile, space=_space(device)
        ).search(chain)
        with ParallelSearchEngine(
            device,
            top_k=5,
            profiler=simulator.profile,
            space=_space(device),
            parallelism=2,
        ) as engine:
            parallel = engine.search(chain)
        _assert_same_search(serial, parallel)

    def test_gated_chain_matches_serial(self, device):
        _, gated = build_gated_ffn("par-gated-eq", 128, 256, 128, 128)
        serial = SearchEngine(device, top_k=5, space=_space(device)).search(gated)
        parallel = ParallelSearchEngine(
            device,
            top_k=5,
            space=_space(device),
            parallelism=1,
        ).search(gated)
        _assert_same_search(serial, parallel)
        assert serial.best.candidate.gated_sequential == (
            parallel.best.candidate.gated_sequential
        )

    def test_no_dsm_space_matches_serial(self, device):
        chain = _chain(name="par-no-dsm")
        serial = SearchEngine(device, top_k=3, include_dsm=False).search(chain)
        parallel = ParallelSearchEngine(
            device, top_k=3, include_dsm=False, parallelism=1
        ).search(chain)
        _assert_same_search(serial, parallel)

    def test_max_candidates_budget_delegates_to_serial(self, device):
        chain = _chain(name="par-budget")
        serial = SearchEngine(
            device, top_k=3, space=_space(device), max_candidates=10
        ).search(chain)
        parallel = ParallelSearchEngine(
            device, top_k=3, space=_space(device), max_candidates=10, parallelism=2
        ).search(chain)
        assert parallel.candidates_analyzed <= 10
        _assert_same_search(serial, parallel)

    def test_invalid_top_k_rejected(self, device):
        with pytest.raises(ValueError):
            ParallelSearchEngine(device, top_k=0)


class TestStackWiring:
    def test_flashfuser_parallelism_compiles_identical_kernel(self, device):
        chain = _chain(name="par-fuser")
        with FlashFuser(device=device, top_k=5, max_tile=128) as serial_compiler:
            serial = serial_compiler.compile(chain)
        with FlashFuser(
            device=device, top_k=5, max_tile=128, parallelism=2
        ) as parallel_compiler:
            parallel = parallel_compiler.compile(chain)
        assert parallel.plan.summary() == serial.plan.summary()
        assert parallel.source == serial.source
        assert parallel.report.time_us == serial.report.time_us

    def test_parallelism_does_not_change_cache_keys(self, device):
        serial_compiler = FlashFuser(device=device, top_k=5, max_tile=128)
        parallel_compiler = FlashFuser(
            device=device, top_k=5, max_tile=128, parallelism=4
        )
        assert (
            serial_compiler.config.cache_key_fields()
            == parallel_compiler.config.cache_key_fields()
        )

    def test_batch_compiler_process_mode(self, device):
        chains = [
            _chain(name="par-batch-a"),
            _chain(m=64, name="par-batch-b"),
            _chain(name="par-batch-a"),  # duplicate: deduplicated, not recompiled
        ]
        with FlashFuser(device=device, top_k=3, max_tile=128) as compiler:
            batch = BatchCompiler(compiler, overrides={"parallelism": 2})
            report = batch.compile_chains(chains)
        assert report.deduplicated == 1
        assert report.failed == 0
        assert len(report.kernels()) == 3

        with FlashFuser(device=device, top_k=3, max_tile=128) as reference:
            expected = reference.compile(chains[0])
        assert report.items[0].kernel.plan.summary() == expected.plan.summary()
