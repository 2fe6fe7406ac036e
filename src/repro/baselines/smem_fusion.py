"""Chimera / MCFuser baseline: analytical SMEM-only chain fusion.

Chimera reschedules the block execution order of a GEMM chain analytically
and keeps the intermediate in the shared memory (or registers) of a single
SM.  It therefore matches FlashFuser on small chains but fails — or must
round-trip through global memory — when the intermediate tile exceeds the
227 KB SMEM of one H100 SM, which is exactly what Figure 5 demonstrates on
OPT-1.3B- and GPT-6.7B-sized FFNs.
"""

from __future__ import annotations


from repro.baselines.base import Baseline, BaselineResult, unfused_launches
from repro.ir.graph import GemmChainSpec
from repro.search.engine import SearchEngine
from repro.search.space import SearchSpace


class ChimeraBaseline(Baseline):
    """Analytical single-SM fusion (no DSM), unfused fallback on failure."""

    name = "chimera"
    # Chimera's generated kernels trail hand-tuned libraries, and its SMEM-
    # only fusion degrades further once the intermediate no longer fits.
    COMPUTE_EFFICIENCY = 0.28
    MEMORY_EFFICIENCY = 0.42
    OVERLAP = 0.6
    LAUNCH_OVERHEAD_US = 6.0

    def __init__(self, *args, fallback: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fallback = fallback
        self._engine = SearchEngine(
            self.device,
            top_k=5,
            include_dsm=False,
            profiler=self.simulator.profile,
            space=SearchSpace(self.device, include_clusters=False),
        )

    def required_smem_bytes(self, chain: GemmChainSpec) -> int:
        """SMEM the intermediate of a (128, N) tile needs — Figure 5's metric."""
        m_tile = min(128, chain.m)
        return m_tile * chain.n * chain.itemsize * chain.num_gemm0_branches

    def run(self, chain: GemmChainSpec) -> BaselineResult:
        search = self._engine.search(chain)
        if search.succeeded:
            best = search.best
            assert best is not None
            report = self.simulator.simulate_plan(best.result)
            return BaselineResult(
                strategy=self.name,
                workload=chain.name,
                time_us=report.time_us,
                global_bytes=report.global_bytes,
                kernels=1,
                fused=True,
                notes="smem-only fusion",
            ).with_flops(chain.total_flops())

        if not self.fallback:
            return BaselineResult(
                strategy=self.name,
                workload=chain.name,
                time_us=float("inf"),
                global_bytes=float("inf"),
                kernels=0,
                fused=False,
                notes="fusion failed (intermediate exceeds SMEM)",
            ).with_flops(chain.total_flops())

        launches = unfused_launches(chain)
        report = self.simulator.simulate_kernels(launches)
        return BaselineResult(
            strategy=self.name,
            workload=chain.name,
            time_us=report.time_us,
            global_bytes=report.global_bytes,
            kernels=len(launches),
            fused=False,
            notes="fusion failed; unfused fallback",
        ).with_flops(chain.total_flops())
