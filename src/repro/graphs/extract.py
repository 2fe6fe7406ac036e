"""Pattern matcher and chain extractor for operator graphs.

The fusion search consumes the compact :class:`~repro.ir.graph.GemmChainSpec`
form, but whole models arrive as :class:`~repro.ir.graph.OperatorGraph` DAGs.
This module bridges the two: it scans a graph for the three fusible shapes of
Figure 1 —

* **standard FFN** — GEMM -> activation -> GEMM,
* **gated FFN** — two GEMMs sharing an input, activation on one branch, an
  elementwise multiply joining them, then a GEMM,
* **conv chain** — Conv2d -> activation -> Conv2d, lowered to a GEMM chain
  through im2col

— and partitions the DAG into fusible chain regions plus the residual
operators that keep executing as separate kernels.

Matching is **deterministic and non-overlapping**: activations are visited in
:meth:`~repro.ir.graph.OperatorGraph.topological_order`, a generation-by-
generation Kahn sort (sources in insertion order, then each generation's
consumers in edge-insertion order); each activation anchors at most one
candidate, and a candidate touching an operator already claimed by an earlier
match is skipped.  A chain
``G0 -> act -> G1 -> act -> G2`` therefore always yields the *first* region
``(G0, act, G1)`` and leaves the tail unfused.

A region is only fusible when its intermediates are private: every tensor
strictly inside the region must have exactly one consumer (also inside it),
and the weight operands must be graph inputs — otherwise the intermediate
would still need to be materialised in global memory, defeating the fusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.graphs.rewrite import RewriteProvenance, canonicalize
from repro.ir.graph import ChainKind, GemmChainSpec, OperatorGraph
from repro.ir.ops import (
    Activation,
    Conv2d,
    Elementwise,
    ElementwiseKind,
    Gemm,
    Operator,
)


@dataclass(frozen=True)
class ChainMatch:
    """One fusible region found in an operator graph.

    Produced by :func:`extract_chains`: the canonical
    :class:`~repro.ir.graph.GemmChainSpec` the region lowers to, the names
    of the operators it covers, and the topological index anchoring it in
    the schedule.

    Example
    -------
    >>> from repro.ir.builders import build_standard_ffn
    >>> graph, _ = build_standard_ffn("demo", m=64, n=128, k=32, l=32)
    >>> match = extract_chains(graph).matches[0]
    >>> match.kind.value, match.operator_names
    ('standard_ffn', ('demo.gemm0', 'demo.act', 'demo.gemm1'))
    """

    #: The extracted chain, canonically identical to building the same shape
    #: directly (so plan-cache keys are bit-identical).
    chain: GemmChainSpec
    #: Names of the operators the region covers, in topological order.
    operator_names: Tuple[str, ...]
    #: Topological index of the region's first operator (orders segments).
    anchor: int

    @property
    def kind(self) -> ChainKind:
        """The matched chain shape."""
        return self.chain.kind


@dataclass
class ExtractionResult:
    """The partition of a graph into fusible chains and residual operators.

    The complete answer of :func:`extract_chains`: every
    :class:`ChainMatch`, the residual operators no match covers, and the
    topological name order that fixes segment scheduling downstream.

    Example
    -------
    >>> from repro.ir.workloads import get_model
    >>> layer = get_model("BERT").layer_graph(seq_len=128)
    >>> result = extract_chains(layer)
    >>> result.num_chains, result.flops_coverage() > 0.5
    (1, True)
    """

    graph_name: str
    matches: List[ChainMatch]
    #: Operators no match covers, in topological order.
    residual: List[Operator]
    #: All operator names in topological order (segment ordering reference).
    topological_names: Tuple[str, ...]
    #: What the rewrite stage did before matching (``None`` when extraction
    #: ran directly on the caller's graph).
    rewrite: Optional[RewriteProvenance] = None

    @property
    def num_chains(self) -> int:
        """Number of fusible regions found."""
        return len(self.matches)

    def flops_coverage(self) -> float:
        """Fraction of graph FLOPs inside fusible regions (0.0 when empty)."""
        fused = sum(match.chain.total_flops() for match in self.matches)
        residual = sum(op.flops() for op in self.residual)
        total = fused + residual
        return fused / total if total > 0 else 0.0


def extract_chains(
    graph: OperatorGraph, validate: bool = True, *, rewrite: bool = False
) -> ExtractionResult:
    """Partition ``graph`` into fusible chain regions and residual operators.

    ``validate`` runs :meth:`OperatorGraph.validate` first so malformed
    graphs fail with a clear :class:`~repro.errors.FusionError` instead of
    surfacing as an obscure matching failure.

    ``rewrite`` canonicalizes the graph first
    (:func:`~repro.graphs.rewrite.canonicalize`): export spellings the
    matcher cannot see through — interior reshapes, transposed weights,
    swapped gating operands, missing link activations — are normalized to
    the Figure-1 forms, and the result records what was done in
    :attr:`ExtractionResult.rewrite`.  Off by default so direct calls stay
    a pure match over the caller's exact graph; the graph compiler and the
    model server always rewrite.

    Example
    -------
    >>> from repro.ir.builders import build_gated_ffn
    >>> graph, spec = build_gated_ffn("ffn", m=64, n=128, k=32, l=32)
    >>> result = extract_chains(graph)
    >>> result.matches[0].chain.same_shape(spec)   # canonically identical
    True
    >>> len(result.residual)
    0
    >>> extract_chains(graph, rewrite=True).rewrite.rules_fired
    ()
    """
    provenance: Optional[RewriteProvenance] = None
    if rewrite:
        rewritten = canonicalize(graph, validate=validate)
        graph, provenance = rewritten.graph, rewritten.provenance
    elif validate:
        graph.validate()
    order = graph.topological_order()
    index_of = {op.name: position for position, op in enumerate(order)}

    matches: List[ChainMatch] = []
    claimed: Set[str] = set()
    for op in order:
        if not isinstance(op, Activation) or op.name in claimed:
            continue
        candidate = _match_at(graph, op)
        if candidate is None:
            continue
        names = {member.name for member in candidate}
        if names & claimed:
            continue
        claimed.update(names)
        members = sorted(candidate, key=lambda member: index_of[member.name])
        chain = _spec_for(graph, op, members, len(matches))
        matches.append(
            ChainMatch(
                chain=chain,
                operator_names=tuple(member.name for member in members),
                anchor=index_of[members[0].name],
            )
        )

    residual = [op for op in order if op.name not in claimed]
    return ExtractionResult(
        graph_name=graph.name,
        matches=matches,
        residual=residual,
        topological_names=tuple(op.name for op in order),
        rewrite=provenance,
    )


# --------------------------------------------------------------------- #
# Matching internals
# --------------------------------------------------------------------- #
def _match_at(graph: OperatorGraph, act: Activation) -> Optional[Sequence[Operator]]:
    """The operators of the fusible region anchored at ``act``, or ``None``."""
    producer = graph.producer_of(act.input_spec.name)
    if producer is None:
        return None
    if not _sole_consumer(graph, producer.output.name, act):
        return None

    if isinstance(producer, Conv2d):
        return _match_conv(graph, producer, act)
    if isinstance(producer, Gemm):
        consumer = _single_consumer(graph, act.output.name)
        if isinstance(consumer, Gemm):
            return _match_standard(graph, producer, act, consumer)
        if isinstance(consumer, Elementwise):
            return _match_gated(graph, producer, act, consumer)
    return None


def _match_standard(
    graph: OperatorGraph, gemm0: Gemm, act: Activation, gemm1: Gemm
) -> Optional[Sequence[Operator]]:
    if gemm1.lhs.name != act.output.name:
        return None
    if (gemm1.m, gemm1.k) != (gemm0.m, gemm0.n):
        return None
    if not (_is_weight(graph, gemm0.rhs.name) and _is_weight(graph, gemm1.rhs.name)):
        return None
    return (gemm0, act, gemm1)


def _match_gated(
    graph: OperatorGraph, gate: Gemm, act: Activation, mul: Elementwise
) -> Optional[Sequence[Operator]]:
    if mul.kind is not ElementwiseKind.MUL:
        return None
    other_name = mul.rhs.name if mul.lhs.name == act.output.name else mul.lhs.name
    up = graph.producer_of(other_name)
    if not isinstance(up, Gemm) or up is gate:
        return None
    # The two branches must share the input activation and project to the
    # same intermediate width for the merged two-branch GEMM0 to exist.
    if up.lhs.name != gate.lhs.name or (up.k, up.n) != (gate.k, gate.n):
        return None
    if not _sole_consumer(graph, up.output.name, mul):
        return None
    down = _single_consumer(graph, mul.output.name)
    if not isinstance(down, Gemm) or down.lhs.name != mul.output.name:
        return None
    if (down.m, down.k) != (gate.m, gate.n):
        return None
    weights = (gate.rhs.name, up.rhs.name, down.rhs.name)
    if not all(_is_weight(graph, name) for name in weights):
        return None
    return (gate, up, act, mul, down)


def _match_conv(
    graph: OperatorGraph, conv1: Conv2d, act: Activation
) -> Optional[Sequence[Operator]]:
    conv2 = _single_consumer(graph, act.output.name)
    if not isinstance(conv2, Conv2d) or conv2.input_spec.name != act.output.name:
        return None
    if conv2.in_channels != conv1.out_channels:
        return None
    if not (_is_weight(graph, conv1.weight.name) and _is_weight(graph, conv2.weight.name)):
        return None
    return (conv1, act, conv2)


def _spec_for(
    graph: OperatorGraph, act: Activation, members: Sequence[Operator], ordinal: int
) -> GemmChainSpec:
    """Lower a matched region to its canonical chain spec.

    The name is provenance only (it is excluded from the canonical identity
    the plan cache keys on): the graph name plus the region's first operator.
    """
    name = f"{graph.name}/{members[0].name}"
    first = members[0]
    if isinstance(first, Conv2d):
        conv2 = members[-1]
        assert isinstance(conv2, Conv2d)
        m, n, k = first.im2col_gemm_dims()
        kh2, kw2 = conv2.kernel_size
        return GemmChainSpec(
            name=name,
            m=m,
            n=n,
            k=k,
            l=conv2.out_channels * kh2 * kw2,
            kind=ChainKind.CONV_CHAIN,
            activation=act.kind,
            dtype=first.input_spec.dtype,
        )
    assert isinstance(first, Gemm)
    last = members[-1]
    assert isinstance(last, Gemm)
    kind = ChainKind.GATED_FFN if len(members) == 5 else ChainKind.STANDARD_FFN
    return GemmChainSpec(
        name=name,
        m=first.m,
        n=first.n,
        k=first.k,
        l=last.n,
        kind=kind,
        activation=act.kind,
        dtype=first.lhs.dtype,
    )


def _single_consumer(graph: OperatorGraph, tensor_name: str) -> Optional[Operator]:
    consumers = graph.consumers_of(tensor_name)
    return consumers[0] if len(consumers) == 1 else None


def _sole_consumer(graph: OperatorGraph, tensor_name: str, expected: Operator) -> bool:
    return graph.consumers_of(tensor_name) == [expected]


def _is_weight(graph: OperatorGraph, tensor_name: str) -> bool:
    """Whether a tensor is a graph input (resident weights, not a produced value)."""
    return graph.producer_of(tensor_name) is None
