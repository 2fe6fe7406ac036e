"""Batch compilation with cache deduplication.

:class:`BatchCompiler` fans independent compile jobs — the M bins of a
kernel table, or a multi-workload warmup sweep — across its compiler's
thread pool.  It is a thin fan-out over
:meth:`~repro.api.FlashFuser.submit`: each deduplicated job becomes one
:class:`~repro.api.CompileRequest`, and the resulting
:class:`~repro.api.CompileResponse` provenance (cache hit/miss, wall clock)
feeds the batch report directly.  Before anything is submitted the job list
is deduplicated by canonical plan-cache key, so a batch containing the same
chain shape twice (or a shape already sitting in the attached
:class:`~repro.runtime.cache.PlanCache`) runs the fusion search at most
once.  Failures (:class:`~repro.api.FusionError`) are captured per job
instead of aborting the batch.

The pool overlaps cache/disk I/O and the numpy parts of cold searches; a
cold search itself is one in-process array kernel
(:func:`~repro.search.engine.score_cascade`), so there is no per-search
fan-out to configure.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api import (
    CompiledKernel,
    CompileRequest,
    FlashFuser,
    FusionError,
    KernelTable,
)
from repro.ir.graph import GemmChainSpec
from repro.ir.workloads import get_chain_spec

#: Job statuses reported in :class:`BatchItem`.
STATUS_COMPILED = "compiled"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"


@dataclass
class BatchItem:
    """Outcome of one compile job in a batch."""

    chain: GemmChainSpec
    status: str
    kernel: Optional[CompiledKernel] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the job produced a kernel."""
        return self.kernel is not None


@dataclass
class BatchReport:
    """Aggregate view of one batch run."""

    items: List[BatchItem] = field(default_factory=list)
    elapsed_s: float = 0.0
    deduplicated: int = 0

    @property
    def compiled(self) -> int:
        """Jobs that ran a fresh fusion search."""
        return sum(1 for item in self.items if item.status == STATUS_COMPILED)

    @property
    def cached(self) -> int:
        """Jobs served from the plan cache (or deduplicated in-batch)."""
        return sum(1 for item in self.items if item.status == STATUS_CACHED)

    @property
    def failed(self) -> int:
        """Jobs for which no feasible fused plan exists."""
        return sum(1 for item in self.items if item.status == STATUS_FAILED)

    def kernels(self) -> List[CompiledKernel]:
        """The successfully produced kernels, in job order."""
        return [item.kernel for item in self.items if item.kernel is not None]


class BatchCompiler:
    """Compile many chains concurrently through one :class:`FlashFuser`.

    Jobs run on the compiler's own :meth:`~repro.api.FlashFuser.submit`
    pool under its configuration; the compiler stays the caller's to close.
    Attaching a cache to it makes batches idempotent across calls and
    processes.

    Example
    -------
    ::

        from repro import BatchCompiler, FlashFuser, PlanCache
        from repro.ir.workloads import get_chain_spec

        with FlashFuser(cache=PlanCache(directory="~/.cache/ff")) as compiler:
            batch = BatchCompiler(compiler)
            items = batch.compile_workloads(["G4", "G5", "S3"])
            table = batch.compile_table(get_chain_spec("G4"), m_bins=(64, 128, 256))
        print({wid: item.status for wid, item in items.items()})
        print(table.bins())
    """

    def __init__(self, compiler: FlashFuser) -> None:
        self.compiler = compiler

    # ------------------------------------------------------------------ #
    # Batch entry points
    # ------------------------------------------------------------------ #
    def compile_chains(self, chains: Sequence[GemmChainSpec]) -> BatchReport:
        """Compile every chain, deduplicating canonically identical ones.

        Jobs whose shape is already present in the compiler's plan cache are
        resolved without a search; duplicate shapes within the batch are
        compiled once and fanned back out to every requesting job.
        """
        start = time.perf_counter()
        report = BatchReport()
        report.items = [
            BatchItem(chain=chain, status=STATUS_FAILED) for chain in chains
        ]

        # Group job indices by canonical identity (shape + device + config).
        groups: Dict[str, List[int]] = {}
        for index, chain in enumerate(chains):
            key = self._dedup_key(chain)
            groups.setdefault(key, []).append(index)
        report.deduplicated = len(chains) - len(groups)

        futures = [
            (indices, self.compiler.submit(CompileRequest(chain=chains[indices[0]])))
            for indices in groups.values()
        ]
        for indices, future in futures:
            self._record_group(report, chains, indices, future)

        report.elapsed_s = time.perf_counter() - start
        return report

    def compile_table(
        self, chain: GemmChainSpec, m_bins: Sequence[int]
    ) -> KernelTable:
        """Parallel counterpart of :meth:`FlashFuser.compile_table`.

        The bins are compiled concurrently (deduplicating repeated bins) and
        assembled into a :class:`~repro.api.KernelTable`.  Bins that admit
        no feasible fused plan are omitted from the table.
        """
        unique_bins = sorted(set(m_bins))
        scaled = [
            chain.scaled(m=m, name=f"{chain.name}_m{m}") for m in unique_bins
        ]
        report = self.compile_chains(scaled)
        kernels = {
            m: item.kernel
            for m, item in zip(unique_bins, report.items)
            if item.kernel is not None
        }
        return KernelTable(chain=chain, kernels=kernels)

    def compile_workloads(
        self,
        workload_ids: Sequence[str],
        m: Optional[int] = None,
    ) -> Dict[str, BatchItem]:
        """Compile a set of paper workloads (optionally at an overridden M)."""
        chains = [get_chain_spec(workload_id, m=m) for workload_id in workload_ids]
        report = self.compile_chains(chains)
        return dict(zip(workload_ids, report.items))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _record_group(
        self,
        report: BatchReport,
        chains: Sequence[GemmChainSpec],
        indices: List[int],
        future: "Future",
    ) -> None:
        """Fan one group's response (or failure) out to its job items."""
        try:
            response = future.result()
            kernel = response.kernel
            status = STATUS_CACHED if response.cache_hit else STATUS_COMPILED
            error = None
            elapsed = response.elapsed_s
        except FusionError as exc:
            kernel, status, error, elapsed = None, STATUS_FAILED, str(exc), 0.0
        for position, index in enumerate(indices):
            chain = chains[index]
            item = report.items[index]
            item.elapsed_s = elapsed if position == 0 else 0.0
            item.error = error
            if kernel is None:
                item.status = STATUS_FAILED
                continue
            # Followers share the leader's plan; they count as cached
            # because no additional search ran for them.
            item.status = status if position == 0 else STATUS_CACHED
            item.kernel = (
                kernel if position == 0 else self._renamed(kernel, chain)
            )

    def _dedup_key(self, chain: GemmChainSpec) -> str:
        key = self.compiler.cache_key(chain)
        return key if key is not None else chain.canonical_hash()

    def _renamed(self, kernel: CompiledKernel, chain: GemmChainSpec) -> CompiledKernel:
        """Serve a duplicate job under its own chain name."""
        if kernel.plan.chain.name == chain.name:
            return kernel
        from repro.runtime.cache import PlanCacheEntry

        return PlanCacheEntry.from_kernel("", kernel).rehydrate(chain=chain)
