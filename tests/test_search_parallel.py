"""Batched scoring and the top-K selection rule.

:meth:`CostModel.evaluate_batch` must give the scalar
:meth:`CostModel.evaluate` bit for bit, and
:func:`~repro.search.engine.select_top_k` must keep the K smallest
``(cost, enumeration index)`` rows, whatever their order — the rule that
makes a search's top-K independent of how its rows were computed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataflow.analyzer import DataflowAnalyzer
from repro.hardware.spec import h100_spec
from repro.ir.builders import build_standard_ffn
from repro.search.cost_model import CostModel
from repro.search.engine import select_top_k
from repro.search.pruning import Pruner
from repro.search.space import SearchSpace


def _chain(m=128, n=256, k=128, l=128, name="par-chain"):
    _, spec = build_standard_ffn(name, m=m, n=n, k=k, l=l)
    return spec


@pytest.fixture(scope="module")
def device():
    return h100_spec()


def _space(device):
    return SearchSpace(device, max_tile=128)


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
        # Exact equality, not approx: plans and top-K order must not depend
        # on whether a cost was computed batched or one at a time.
        assert batched.tolist() == scalar

    def test_empty_batch(self, device):
        assert CostModel(device).evaluate_batch([]).shape == (0,)


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
