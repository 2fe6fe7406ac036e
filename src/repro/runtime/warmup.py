"""Warmup: precompile the paper's workload suites ahead of traffic.

Serving latency is dominated by cold fusion searches, so a deployment warms
the cache before accepting requests: every (workload, M-bin) pair of the
anticipated traffic is compiled once — in parallel through
:meth:`~repro.api.FlashFuser.compile_chains`, one search per distinct shape,
deduplicated against the plan cache — and assembled into per-workload
kernel tables.  A warmed
:class:`~repro.runtime.server.KernelServer` then serves the paper's suites
entirely from table lookups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import FlashFuser, FusionError, KernelTable
from repro.ir.workloads import get_chain_spec, list_workloads

#: The suites warmed by default: the paper's GEMM chains (Table VII) and
#: gated FFN chains (Table VI).  Conv chains are opt-in — their im2col
#: M extents rarely appear in dynamic-shape serving.
DEFAULT_WARMUP_SUITES: Tuple[str, ...] = ("gemm", "gated_ffn")

#: Default M bins warmed per workload (the paper evaluates at M=128).
DEFAULT_WARMUP_M_BINS: Tuple[int, ...] = (128,)


@dataclass
class WarmupReport:
    """Outcome of one warmup sweep."""

    jobs: int = 0
    compiled: int = 0
    cached: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    #: Failure reasons keyed by ``"<workload>@m<bin>"``.
    failures: Dict[str, str] = field(default_factory=dict)
    #: One kernel table per warmed workload (failed bins omitted).
    tables: Dict[str, KernelTable] = field(default_factory=dict)

    @property
    def succeeded(self) -> int:
        """Jobs that produced a kernel (fresh or cached)."""
        return self.compiled + self.cached

    def snapshot(self) -> Dict[str, object]:
        """Plain-dictionary view for logs and tests."""
        return {
            "jobs": self.jobs,
            "compiled": self.compiled,
            "cached": self.cached,
            "failed": self.failed,
            "elapsed_s": self.elapsed_s,
            "failures": dict(self.failures),
            "workloads": sorted(self.tables),
        }


def default_warmup_workloads() -> List[str]:
    """The workload ids warmed when none are specified."""
    ids: List[str] = []
    for suite in DEFAULT_WARMUP_SUITES:
        ids.extend(list_workloads(suite))
    return ids


def warmup_workloads(
    compiler: FlashFuser,
    workload_ids: Optional[Sequence[str]] = None,
    m_bins: Sequence[int] = DEFAULT_WARMUP_M_BINS,
) -> WarmupReport:
    """Precompile every (workload, M-bin) pair through one compile fan-out.

    Parameters
    ----------
    compiler:
        The :class:`FlashFuser` whose
        :meth:`~repro.api.FlashFuser.compile_chains` runs the jobs, under
        its configuration on its pool; the compiler stays open.
    workload_ids:
        Workloads to warm; defaults to the paper's GEMM and gated-FFN suites.
    m_bins:
        M bins compiled per workload.

    Returns a :class:`WarmupReport`: per-workload kernel tables plus
    compiled/cached/failed counts and the elapsed wall clock.  A job whose
    shape repeats an earlier job's counts as cached: no search ran for it.

    Example
    -------
    ::

        from repro import FlashFuser, warmup_workloads

        with FlashFuser(cache="~/.cache/ff") as compiler:
            report = warmup_workloads(compiler, workload_ids=["G4", "G5"],
                                      m_bins=(64, 128, 256))
        print(report.succeeded, report.snapshot())
    """
    start = time.perf_counter()
    ids = list(workload_ids) if workload_ids is not None else default_warmup_workloads()
    bins = sorted(set(m_bins))
    if not bins:
        raise ValueError("m_bins must be non-empty")
    if any(m <= 0 for m in bins):
        raise ValueError("m_bins must be positive")

    jobs: List[Tuple[str, int]] = [(wid, m) for wid in ids for m in bins]
    chains = [get_chain_spec(wid).scaled(m=m, name=f"{wid}_m{m}") for wid, m in jobs]
    outcomes = compiler.compile_chains(chains)

    report = WarmupReport(jobs=len(jobs))
    seen = set()
    for (wid, m), outcome in zip(jobs, outcomes):
        if isinstance(outcome, FusionError):
            report.failed += 1
            report.failures[f"{wid}@m{m}"] = str(outcome) or "fusion failed"
            continue
        if outcome.cache_hit or id(outcome) in seen:
            report.cached += 1
        else:
            report.compiled += 1
        seen.add(id(outcome))
        table = report.tables.setdefault(wid, KernelTable(chain=get_chain_spec(wid)))
        table.kernels[m] = outcome.kernel
    report.elapsed_s = time.perf_counter() - start
    return report
