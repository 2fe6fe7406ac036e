"""FlashFuser reproduction: DSM-aware kernel fusion for compute-intensive chains.

The package reproduces "FlashFuser: Expanding the Scale of Kernel Fusion for
Compute-Intensive Operators via Inter-Core Connection" (HPCA 2026) as a pure
Python library: the dsm_comm communication abstraction, the dataflow
analyzer, the fusion search engine, an analytical H100 model and performance
simulator standing in for the paper's hardware testbed, the baseline
strategies it compares against, and one experiment driver per table and
figure of the evaluation.

Typical usage::

    from repro import FuserConfig, FlashFuser
    from repro.ir import get_workload

    config = FuserConfig(device="h100")
    with FlashFuser(config) as compiler:
        kernel = compiler.compile(get_workload("G5").to_spec())
    print(kernel.summary())
"""

from repro.api import (
    CompiledKernel,
    CompileRequest,
    CompileResponse,
    FlashFuser,
    FusionError,
    KernelTable,
    compile_chain,
)
from repro.config import FuserConfig
from repro.hardware import (
    HardwareSpec,
    a100_spec,
    get_device,
    h100_spec,
    list_devices,
    register_device,
)
from repro.ir import GemmChainSpec, OperatorGraph, get_workload, list_workloads
from repro.search import SearchEngine
from repro.runtime import (
    KernelServer,
    PlanCache,
    ServingStats,
    warmup_workloads,
)
from repro.graphs import (
    ChainMatch,
    ExtractionResult,
    ModelPlan,
    ModelServer,
    PlanSegment,
    RewriteProvenance,
    canonicalize,
    compile_graph,
    extract_chains,
)
from repro.bench import (
    BenchConfig,
    LoadDriver,
    PerfReport,
    Trace,
)
from repro.fleet import FleetConfig, FleetStats, ServingFleet
from repro.analysis import OrderedLock, PlanVerifier, run_repo_lint

__all__ = [
    "CompiledKernel",
    "CompileRequest",
    "CompileResponse",
    "FlashFuser",
    "FuserConfig",
    "FusionError",
    "KernelTable",
    "compile_chain",
    "HardwareSpec",
    "a100_spec",
    "h100_spec",
    "get_device",
    "list_devices",
    "register_device",
    "GemmChainSpec",
    "OperatorGraph",
    "get_workload",
    "list_workloads",
    "ChainMatch",
    "ExtractionResult",
    "ModelPlan",
    "ModelServer",
    "PlanSegment",
    "RewriteProvenance",
    "canonicalize",
    "compile_graph",
    "extract_chains",
    "SearchEngine",
    "KernelServer",
    "PlanCache",
    "ServingStats",
    "warmup_workloads",
    "BenchConfig",
    "LoadDriver",
    "PerfReport",
    "Trace",
    "FleetConfig",
    "FleetStats",
    "ServingFleet",
    "OrderedLock",
    "PlanVerifier",
    "run_repo_lint",
]

__version__ = "0.7.0"
