"""Benchmark: the factorised pruning cascade vs the per-candidate walk.

A cold compile is dominated by the fusion search, so a serving deployment's
warmup time is ``sum(search time)`` over its workload suite.  The search
prunes its space with :meth:`~repro.search.pruning.Pruner.cascade`, which
evaluates Rules 1-5 as masks over the space's axes instead of walking every
candidate through the scalar rules (:meth:`Pruner.prune`, the reference).
This benchmark times both over the same multi-GEMM chain sweep and asserts
the cascade is at least :data:`MIN_CASCADE_SPEEDUP` times faster — a ratio
of two pure-Python passes on the same host, so it holds on any host.  It
also checks that the serial :class:`~repro.search.engine.SearchEngine`, the
in-process :class:`~repro.search.parallel.ParallelSearchEngine` and its
process pool select bit-identical plans.
"""

from __future__ import annotations

import time

from repro.hardware.spec import h100_spec
from repro.ir.builders import build_standard_ffn
from repro.search.engine import SearchEngine
from repro.search.parallel import ParallelSearchEngine
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
    survivors = []
    for chain in chains:
        cascade = Pruner(device).cascade(chain, space.components(chain))
        survivors.append([candidate for _, candidate in cascade.survivors()])
    return survivors, time.perf_counter() - start


def _walk_sweep(device, space, chains):
    start = time.perf_counter()
    survivors = []
    for chain in chains:
        survivors.append(list(Pruner(device).prune(space.candidates(chain))))
    return survivors, time.perf_counter() - start


def _assert_identical_selections(serial_results, parallel_results):
    # Identical selections, chain by chain: sharding may only change
    # wall-clock, never the plan.
    for serial, parallel in zip(serial_results, parallel_results):
        assert serial.succeeded and parallel.succeeded
        assert serial.best.candidate == parallel.best.candidate
        assert serial.best.predicted_cost_us == parallel.best.predicted_cost_us
        assert serial.candidates_enumerated == parallel.candidates_enumerated
        assert serial.candidates_analyzed == parallel.candidates_analyzed


def test_cascade_prunes_sweep_faster_than_reference_walk(benchmark):
    device = h100_spec()
    simulator = PerformanceSimulator(device)
    space = SearchSpace(device, max_tile=128)
    chains = _chains()
    assert len(chains) >= 8

    cascade_survivors, cascade_s = _cascade_sweep(device, space, chains)
    walk_survivors, walk_s = _walk_sweep(device, space, chains)
    assert cascade_survivors == walk_survivors

    serial_engine = SearchEngine(
        device,
        top_k=5,
        profiler=simulator.profile,
        space=SearchSpace(device, max_tile=128),
    )
    # Register with pytest-benchmark so the per-commit bench.json artifact
    # tracks cold-compile time over time.
    serial_results, serial_s = benchmark.pedantic(
        _sweep, args=(serial_engine, chains), rounds=1, iterations=1
    )
    with ParallelSearchEngine(
        device,
        top_k=5,
        profiler=simulator.profile,
        space=SearchSpace(device, max_tile=128),
        parallelism=1,
    ) as inline_engine:
        inline_results, inline_s = _sweep(inline_engine, chains)
    _assert_identical_selections(serial_results, inline_results)

    # The pooled default (cpu_count workers) is checked for plan identity;
    # its wall-clock is host-dependent and does not gate.
    with ParallelSearchEngine(
        device,
        top_k=5,
        profiler=simulator.profile,
        space=SearchSpace(device, max_tile=128),
    ) as pooled_engine:
        pooled_results, pooled_s = _sweep(pooled_engine, chains)
    _assert_identical_selections(serial_results, pooled_results)

    speedup = walk_s / cascade_s
    benchmark.extra_info["cascade_s"] = cascade_s
    benchmark.extra_info["walk_s"] = walk_s
    benchmark.extra_info["cascade_speedup"] = speedup
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["inline_parallel_s"] = inline_s
    benchmark.extra_info["pooled_parallel_s"] = pooled_s
    print(
        f"\npruning sweep: cascade {cascade_s:.3f}s vs walk {walk_s:.3f}s "
        f"({speedup:.1f}x); search sweep: serial {serial_s:.2f}s, "
        f"inline {inline_s:.2f}s, pooled {pooled_s:.2f}s"
    )
    assert speedup >= MIN_CASCADE_SPEEDUP
