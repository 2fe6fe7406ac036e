"""Graph compiler subsystem: from whole model graphs to executable plans.

The layers below this package compile one *chain* at a time; this package
turns full :class:`~repro.ir.graph.OperatorGraph` models into servable
plans:

* :mod:`repro.graphs.rewrite` — the rule-based canonicalizer that
  normalizes export spellings (interior reshapes, transposed weights,
  swapped gating operands, missing link activations) into the Figure-1
  forms before matching (the graph compiler and model server always run
  it);
* :mod:`repro.graphs.extract` — the pattern matcher and chain extractor
  that partitions a model DAG into the fusible shapes of Figure 1
  (standard FFN, gated FFN, conv chain via im2col) plus residual operators,
  with deterministic, non-overlapping region selection;
* :mod:`repro.graphs.plan` — :func:`compile_graph` and the
  :class:`ModelPlan` scheduler: extracted chains compile concurrently
  through the :class:`~repro.api.FlashFuser` submit/cache stack, residual
  operators are charged on the performance simulator, and the result is a
  topologically ordered plan with per-segment provenance;
* :mod:`repro.graphs.server` — :class:`ModelServer`, the serving
  integration resolving every extracted chain through the existing
  table -> cache -> compile path with model-level serving stats.
"""

from repro.graphs.extract import ChainMatch, ExtractionResult, extract_chains
from repro.graphs.rewrite import (
    DEFAULT_RULES,
    GraphEdit,
    RewriteProvenance,
    RewriteResult,
    RewriteRule,
    canonicalize,
    graph_signature,
)
from repro.graphs.plan import (
    KIND_FUSED,
    KIND_UNFUSED,
    ModelPlan,
    PlanSegment,
    assemble_plan,
    compile_graph,
)
from repro.graphs.server import GraphFactory, ModelServeResponse, ModelServer

__all__ = [
    "ChainMatch",
    "ExtractionResult",
    "extract_chains",
    "DEFAULT_RULES",
    "GraphEdit",
    "RewriteProvenance",
    "RewriteResult",
    "RewriteRule",
    "canonicalize",
    "graph_signature",
    "KIND_FUSED",
    "KIND_UNFUSED",
    "ModelPlan",
    "PlanSegment",
    "assemble_plan",
    "compile_graph",
    "GraphFactory",
    "ModelServeResponse",
    "ModelServer",
]
