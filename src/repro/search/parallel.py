"""Process-parallel fusion search (Algorithm 2, analysis fanned across workers).

:class:`ParallelSearchEngine` is the serial
:class:`~repro.search.engine.SearchEngine` with one step replaced: after the
pruning cascade, the survivor list is cut into ``parallelism`` equal slices
and each slice runs the engine's analyze → batch-score → top-K kernel
(:func:`~repro.search.engine.analyze_and_rank`) in a worker process.  The
cascade gives the exact survivor count before any analysis starts, and
analysis dominates a search, so equal slices are equal work.  Each worker
returns its ``top_k`` smallest ``(cost, enumeration index)`` plans; that rule
does not depend on how the survivors were split, so the merged top-K, the
selected plan and every count equal the serial engine's.

With ``parallelism <= 1``, or when the survivors are too few to be worth a
round trip, the engine *is* the serial engine: it runs the same kernel
in-process.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dataflow.analyzer import DataflowAnalyzer
from repro.hardware.spec import HardwareSpec
from repro.search.cost_model import CostModel
from repro.search.engine import (
    ProfilerFn,
    RankOutcome,
    SearchEngine,
    Survivor,
    analyze_and_rank,
)
from repro.search.space import SearchSpace


@dataclass(frozen=True)
class ShardTask:
    """One slice of a chain's survivor list, self-contained and picklable."""

    device: HardwareSpec
    include_dsm: bool
    cost_model: CostModel
    keep: int
    require_feasible: bool
    survivors: Sequence[Survivor]


def _rank_shard(task: ShardTask) -> RankOutcome:
    """Run the analyze → rank kernel on one slice (in a worker process)."""
    return analyze_and_rank(
        task.survivors,
        DataflowAnalyzer(task.device, include_dsm=task.include_dsm),
        task.cost_model,
        keep=task.keep,
        require_feasible=task.require_feasible,
    )


class ParallelSearchEngine(SearchEngine):
    """Process-parallel drop-in for :class:`SearchEngine`.

    Returns the identical best plan, top-K ordering, per-rule pruning
    statistics and candidate counts as the serial engine; only the
    analysis step runs in worker processes.

    Parameters
    ----------
    device:
        Target hardware, as for :class:`SearchEngine`.
    parallelism:
        Worker-process count; defaults to ``os.cpu_count()``.  With one
        worker the engine runs the serial kernel in-process.
    executor:
        Optional externally managed executor (shared across engines); when
        provided it is not shut down by :meth:`close`.
    max_candidates:
        Analysis budget.  A budget analyses the first survivors in
        enumeration order, so budgeted searches run in-process.

    The remaining parameters mirror :class:`SearchEngine`.  The engine's
    ``cost_model`` is pickled into every shard task, so a custom model must
    be picklable.

    Example
    -------
    ::

        from repro import FlashFuser, FuserConfig
        from repro.ir.workloads import get_chain_spec

        # The usual entry point: one FuserConfig knob fans cold searches
        # across 8 worker processes; the selected plan is bit-identical
        # to the serial engine's.
        with FlashFuser(FuserConfig(parallelism=8)) as compiler:
            kernel = compiler.compile_workload("G5")

        # Direct use, mirroring SearchEngine:
        from repro.hardware import h100_spec
        from repro.search import ParallelSearchEngine

        engine = ParallelSearchEngine(h100_spec(), parallelism=4)
        result = engine.search(get_chain_spec("G5"))
        engine.close()
    """

    #: Fewest survivors per worker worth a process round trip (at ~80 us of
    #: analysis per survivor, a slice below this costs less than the trip).
    MIN_SHARD_SURVIVORS = 256

    def __init__(
        self,
        device: HardwareSpec,
        top_k: int = 11,
        include_dsm: bool = True,
        profiler: Optional[ProfilerFn] = None,
        space: Optional[SearchSpace] = None,
        cost_model: Optional[CostModel] = None,
        require_feasible: bool = True,
        max_candidates: Optional[int] = None,
        parallelism: Optional[int] = None,
        executor: Optional[Executor] = None,
        transfer_bound: float = 2.0,
    ) -> None:
        super().__init__(
            device,
            top_k=top_k,
            include_dsm=include_dsm,
            profiler=profiler,
            space=space,
            cost_model=cost_model,
            require_feasible=require_feasible,
            max_candidates=max_candidates,
            transfer_bound=transfer_bound,
        )
        self.parallelism = max(
            1, parallelism if parallelism is not None else (os.cpu_count() or 1)
        )
        self._external_executor = executor
        self._owned_executor: Optional[ProcessPoolExecutor] = None
        # compile()/search() may be called concurrently from a thread pool
        # (BatchCompiler, KernelServer); guard the lazy pool creation.
        self._executor_lock = threading.Lock()

    def close(self) -> None:
        """Shut down the engine-owned worker pool (idempotent)."""
        with self._executor_lock:
            executor, self._owned_executor = self._owned_executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ParallelSearchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _analyze_and_rank(self, survivors: Sequence[Survivor]) -> RankOutcome:
        shards = min(self.parallelism, len(survivors) // self.MIN_SHARD_SURVIVORS)
        if shards <= 1 or self.max_candidates is not None:
            return super()._analyze_and_rank(survivors)
        start = time.perf_counter()
        executor = self._ensure_executor()
        step = -(-len(survivors) // shards)
        futures = [
            executor.submit(
                _rank_shard,
                ShardTask(
                    device=self.device,
                    include_dsm=self.include_dsm,
                    cost_model=self.cost_model,
                    keep=self.top_k,
                    require_feasible=self.require_feasible,
                    survivors=survivors[offset : offset + step],
                ),
            )
            for offset in range(0, len(survivors), step)
        ]
        outcomes: List[RankOutcome] = [future.result() for future in futures]
        merge_t0 = time.perf_counter()
        plans = heapq.nsmallest(
            self.top_k,
            (plan for outcome in outcomes for plan in outcome.plans),
            key=lambda entry: (entry[0], entry[1]),
        )
        merge_t1 = time.perf_counter()
        # Shards fuse analysis and scoring, so the pool's wall time counts
        # as analysis; only the merge is measured as ranking.
        return RankOutcome(
            plans=plans,
            analyzed=sum(outcome.analyzed for outcome in outcomes),
            skipped=0,
            analyze_s=merge_t0 - start,
            rank_s=merge_t1 - merge_t0,
        )

    def _ensure_executor(self) -> Executor:
        if self._external_executor is not None:
            return self._external_executor
        with self._executor_lock:
            if self._owned_executor is None:
                # Spawned workers: the compiler may run searches from
                # threads, and forking a threaded process is unsafe.
                self._owned_executor = ProcessPoolExecutor(
                    max_workers=self.parallelism,
                    mp_context=multiprocessing.get_context("spawn"),
                )
            return self._owned_executor
