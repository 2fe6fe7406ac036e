"""Benchmark: the search's array kernels vs their scalar references.

A cold compile is dominated by the fusion search, so a serving deployment's
warmup time is ``sum(search time)`` over its workload suite.  The search
runs two array kernels, each timed here against its scalar reference over
the same multi-GEMM chain sweep:

* the pruning cascade (:meth:`~repro.search.pruning.Pruner.cascade`, Rules
  1-5 as masks over the space's axes) against the per-candidate walk
  (:meth:`Pruner.prune`), which must be at least
  :data:`MIN_CASCADE_SPEEDUP` times slower;
* the analysis and pricing of the survivors
  (:func:`~repro.search.engine.score_cascade`) against the scalar loop of
  :meth:`DataflowAnalyzer.analyze` and :meth:`CostModel.evaluate` per
  survivor, which must be at least :data:`MIN_KERNEL_SPEEDUP` times slower.

Each gate is a ratio of two passes on the same host, so it holds on any
host; the outputs of each pair must also be identical.
"""

from __future__ import annotations

import time

from repro.dataflow.analyzer import DataflowAnalyzer
from repro.hardware.spec import h100_spec
from repro.ir.builders import build_standard_ffn
from repro.search.cost_model import CostModel
from repro.search.engine import SearchEngine, score_cascade
from repro.search.pruning import Pruner
from repro.search.space import SearchSpace
from repro.sim.engine import PerformanceSimulator

#: The sweep: eight 2-GEMM FFN chains spanning small to mid problem shapes.
SWEEP = (
    ("W1", 128, 256, 128, 128),
    ("W2", 128, 512, 128, 128),
    ("W3", 128, 256, 256, 128),
    ("W4", 128, 512, 256, 256),
    ("W5", 128, 768, 128, 256),
    ("W6", 64, 256, 128, 256),
    ("W7", 64, 512, 256, 128),
    ("W8", 128, 384, 128, 128),
)

#: Least accepted ratio of reference-walk time to cascade time.
MIN_CASCADE_SPEEDUP = 5.0

#: Least accepted ratio of scalar analysis-loop time to array-kernel time.
MIN_KERNEL_SPEEDUP = 10.0


def _chains():
    return [
        build_standard_ffn(name, m=m, n=n, k=k, l=l)[1] for name, m, n, k, l in SWEEP
    ]


def _sweep(engine, chains):
    start = time.perf_counter()
    results = [engine.search(chain) for chain in chains]
    return results, time.perf_counter() - start


def _cascade_sweep(device, space, chains):
    start = time.perf_counter()
    cascades = [
        Pruner(device).cascade(chain, space.components(chain)) for chain in chains
    ]
    return cascades, time.perf_counter() - start


def _walk_sweep(device, space, chains):
    start = time.perf_counter()
    survivors = []
    for chain in chains:
        survivors.append(list(Pruner(device).prune(space.candidates(chain))))
    return survivors, time.perf_counter() - start


def _kernel_sweep(analyzer, cost_model, cascades):
    start = time.perf_counter()
    costs = [
        score_cascade(cascade, analyzer, cost_model).cost.tolist()
        for cascade in cascades
    ]
    return costs, time.perf_counter() - start


def _scalar_sweep(analyzer, cost_model, cascades):
    start = time.perf_counter()
    costs = []
    for cascade in cascades:
        costs.append(
            [
                cost_model.evaluate(
                    analyzer.analyze(
                        candidate.chain,
                        candidate.schedule,
                        candidate.tile,
                        candidate.geometry,
                        gated_sequential=candidate.gated_sequential,
                    )
                )
                for _, candidate in cascade.survivors()
            ]
        )
    return costs, time.perf_counter() - start


def test_cascade_prunes_sweep_faster_than_reference_walk(benchmark):
    device = h100_spec()
    simulator = PerformanceSimulator(device)
    space = SearchSpace(device, max_tile=128)
    chains = _chains()
    assert len(chains) >= 8

    cascades, cascade_s = _cascade_sweep(device, space, chains)
    walk_survivors, walk_s = _walk_sweep(device, space, chains)
    assert [
        [candidate for _, candidate in cascade.survivors()] for cascade in cascades
    ] == walk_survivors

    engine = SearchEngine(
        device,
        top_k=5,
        profiler=simulator.profile,
        space=SearchSpace(device, max_tile=128),
    )
    # Register with pytest-benchmark so the per-commit bench.json artifact
    # tracks cold-compile time over time.
    results, search_s = benchmark.pedantic(
        _sweep, args=(engine, chains), rounds=1, iterations=1
    )
    assert all(result.succeeded for result in results)

    speedup = walk_s / cascade_s
    benchmark.extra_info["cascade_s"] = cascade_s
    benchmark.extra_info["walk_s"] = walk_s
    benchmark.extra_info["cascade_speedup"] = speedup
    benchmark.extra_info["search_s"] = search_s
    print(
        f"\npruning sweep: cascade {cascade_s:.3f}s vs walk {walk_s:.3f}s "
        f"({speedup:.1f}x); search sweep {search_s:.2f}s"
    )
    assert speedup >= MIN_CASCADE_SPEEDUP


def test_array_kernel_scores_sweep_faster_than_scalar_loop():
    device = h100_spec()
    cascades, _ = _cascade_sweep(device, SearchSpace(device, max_tile=128), _chains())
    assert sum(len(cascade) for cascade in cascades) > 0

    # Both paths share one analyzer and cost model; a first kernel pass
    # fills their per-cluster-size caches before either is timed.
    analyzer, cost_model = DataflowAnalyzer(device), CostModel(device)
    _kernel_sweep(analyzer, cost_model, cascades)
    kernel_costs, kernel_s = _kernel_sweep(analyzer, cost_model, cascades)
    scalar_costs, scalar_s = _scalar_sweep(analyzer, cost_model, cascades)
    assert kernel_costs == scalar_costs

    speedup = scalar_s / kernel_s
    print(
        f"\nscoring sweep: array kernel {kernel_s * 1e3:.1f}ms vs scalar loop "
        f"{scalar_s * 1e3:.1f}ms ({speedup:.1f}x)"
    )
    assert speedup >= MIN_KERNEL_SPEEDUP
