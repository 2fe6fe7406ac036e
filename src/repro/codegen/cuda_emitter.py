"""CUDA-like source emission.

The emitter renders the kernel IR as human-readable CUDA-flavoured pseudo
code resembling the CUTLASS-based kernels FlashFuser generates.  No compiler
consumes it — the point is inspectability: examples print it, tests check
that the expected cluster declarations and dsm_comm calls appear, and a
reader can compare the structure with Section V-B of the paper.
"""

from __future__ import annotations

from typing import List

from repro.codegen.kernel_ir import KernelIR, KernelSection
from repro.codegen.plan import ExecutionPlan


def _section_lines(ir: KernelIR, section: KernelSection) -> List[str]:
    lines = [f"  // ---- {section.value} ----"]
    for statement in ir.section(section):
        detail = f"  // {statement.detail}" if statement.detail else ""
        lines.append(f"  {statement.opcode}();{detail}")
    return lines


def emit_cuda(plan: ExecutionPlan, ir: KernelIR) -> str:
    """Render an execution plan's kernel IR (``lower_plan(plan)``) as
    CUDA-like pseudo source."""
    geometry = plan.geometry
    chain = plan.chain

    header = [
        f"// Auto-generated by FlashFuser for workload {chain.name}",
        f"// chain: M={chain.m} N={chain.n} K={chain.k} L={chain.l} kind={chain.kind.value}",
        f"// schedule: {plan.schedule.label()}",
        "__global__ void __cluster_dims__("
        f"{geometry.cls_m * geometry.cls_n * geometry.cls_k}, 1, 1) "
        f"{ir.name}(",
        "    const half* __restrict__ A, const half* __restrict__ B,",
        "    const half* __restrict__ D, half* __restrict__ E) {",
    ]
    body: List[str] = []
    for section in KernelSection:
        body.extend(_section_lines(ir, section))
    footer = ["}"]
    return "\n".join(header + body + footer) + "\n"
