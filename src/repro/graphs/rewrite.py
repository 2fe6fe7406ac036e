"""Rule-based graph rewriting: canonicalize operator graphs before extraction.

The chain extractor (:mod:`repro.graphs.extract`) recognises the three
Figure-1 shapes only when a graph is spelled in exactly the canonical form.
Real model exports are not: they interpose reshapes between a GEMM and its
activation, consume weights through transposes (``x @ W.T`` spellings), swap
the operands of the gating multiply, or omit the activation entirely.  Each
of those spellings is semantically a fusible chain, yet extracts zero chains
and serves fully unfused.

This module closes that gap with a small term-rewriting system:

* :class:`RewriteRule` — the rule protocol: a structural **match** on one
  anchor operator, an **applicability guard** (the part that keeps the rule
  set confluent: a rule must never undo what another rule established), and
  a **substitution** expressed as a declarative :class:`GraphEdit`.
* :func:`canonicalize` — the deterministic greedy driver: operators are
  scanned in insertion order, rules in catalog order, the first match is
  applied, and the scan restarts on the rebuilt graph until no rule fires
  (a fixpoint) or the fixpoint bound trips (:class:`~repro.errors.FusionError`
  — a diverging rule set is a bug, not a degraded mode).
* :data:`DEFAULT_RULES` — the opening catalog: dead movement-op and identity
  elimination, reshape elimination, transpose cancellation and folding,
  commutative operand ordering, and the identity-link substitution that
  normalizes activation-free GEMM-GEMM / conv-conv pairs into the canonical
  Figure-1 spellings.

Reachability pre-pruning keeps the driver cheap: each rule declares the
operator types it can anchor on, and every pass skips rules whose anchor
types are absent from the graph (the banned-rule pruning idea from equality-
saturation engines, applied to a greedy driver).

Rewriting is **plan-neutral** with respect to the per-chain plan cache: it
changes *which* chains are extracted, never which plan a given chain
compiles to.  A chain extracted from a rewritten graph has the same
canonical identity — hence the same plan-cache key — as the same chain
built directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as _dataclass_fields, replace as _dc_replace
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    runtime_checkable,
)

from repro.errors import FusionError
from repro.ir.graph import OperatorGraph
from repro.ir.ops import (
    Activation,
    ActivationKind,
    Conv2d,
    Elementwise,
    Gemm,
    Operator,
    Reshape,
    Transpose,
)
from repro.ir.tensor import TensorSpec
from repro.obs.trace import tracer

__all__ = [
    "DEFAULT_RULES",
    "GraphEdit",
    "RewriteProvenance",
    "RewriteResult",
    "RewriteRule",
    "canonicalize",
    "graph_signature",
]

#: Fixpoint bound: a sound rule set converges in far fewer firings than this
#: (every rule either removes an operator or is guarded against re-firing);
#: tripping it means two rules are inverses of each other.
_FIXPOINT_SLACK = 16
_FIXPOINT_FACTOR = 8


# --------------------------------------------------------------------- #
# Edits: declarative graph surgery
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GraphEdit:
    """One rule application, as a declarative edit over a graph.

    The driver applies an edit by rebuilding the graph in insertion order:
    operators named in ``drop`` are removed, consumed-tensor names in
    ``rename`` are rewritten on every *pre-existing* operator (inserted
    operators are taken verbatim — they may legitimately consume a tensor
    the edit reroutes around them), ``insert_after`` places new operators
    directly after a surviving anchor, and ``new_inputs`` declares synthetic
    graph inputs on graphs that declare their inputs (transpose folding
    introduces a pre-transposed weight tensor no operator produces).
    """

    drop: Tuple[str, ...] = ()
    rename: Tuple[Tuple[str, str], ...] = ()
    insert_after: Tuple[Tuple[str, Operator], ...] = ()
    new_inputs: Tuple[TensorSpec, ...] = ()


def _rename_inputs(op: Operator, rename: Dict[str, str]) -> Operator:
    """``op`` with every renamed input tensor rewired (shape/dtype kept).

    Operator outputs derive their names from the operator name, so renaming
    only ever touches input-position :class:`TensorSpec` fields.
    """
    if not rename:
        return op
    updates = {}
    for field in _dataclass_fields(op):
        value = getattr(op, field.name)
        if isinstance(value, TensorSpec) and value.name in rename:
            updates[field.name] = value.with_name(rename[value.name])
    return _dc_replace(op, **updates) if updates else op


def _apply_edit(graph: OperatorGraph, edit: GraphEdit) -> OperatorGraph:
    """Rebuild ``graph`` with ``edit`` applied (insertion order preserved)."""
    drop = set(edit.drop)
    rename = dict(edit.rename)
    inserts: Dict[str, List[Operator]] = {}
    for anchor, op in edit.insert_after:
        inserts.setdefault(anchor, []).append(op)
    operators: List[Operator] = []
    for op in graph.operators:
        if op.name not in drop:
            operators.append(_rename_inputs(op, rename))
        for inserted in inserts.get(op.name, ()):
            operators.append(inserted)
    inputs: Optional[Sequence[TensorSpec]] = None
    declared = graph.declared_inputs
    if declared is not None:
        inputs = list(declared) + list(edit.new_inputs)
    return OperatorGraph(graph.name, operators, inputs=inputs)


def graph_signature(graph: OperatorGraph) -> Tuple[object, ...]:
    """A structural identity for graph-equality assertions.

    Two graphs with equal signatures have the same operators (type, name,
    inputs, output) in the same order and the same declared inputs — the
    equality the idempotence property (``canonicalize(canonicalize(g)) ==
    canonicalize(g)``) is stated over.
    """
    declared = graph.declared_inputs
    return (
        graph.name,
        None if declared is None else tuple(declared),
        tuple(
            (type(op).__name__, op.name, tuple(op.inputs), op.output)
            for op in graph.operators
        ),
    )


# --------------------------------------------------------------------- #
# The rule protocol
# --------------------------------------------------------------------- #
@runtime_checkable
class RewriteRule(Protocol):
    """What the driver requires of a rewrite rule.

    ``anchors`` names the operator types the rule can fire on — the driver's
    reachability pre-pruning skips the rule entirely when none is present in
    the graph.  ``match`` receives each candidate anchor in deterministic
    scan order and returns the :class:`GraphEdit` to apply, or ``None``.
    Implementations conventionally split ``match`` into a structural match
    and an applicability guard (see :class:`_EliminateIdentityActivation`
    for the pattern); the guard is what makes the catalog confluent — a rule
    must refuse to fire on the exact configuration another rule establishes.
    """

    name: str
    anchors: FrozenSet[Type[Operator]]

    def match(self, graph: OperatorGraph, op: Operator) -> Optional[GraphEdit]:
        """The edit this rule applies at anchor ``op``, or ``None``."""
        ...


def _sole_consumer(graph: OperatorGraph, tensor: str, expected: Operator) -> bool:
    return graph.consumers_of(tensor) == [expected]


def _single_consumer(graph: OperatorGraph, tensor: str) -> Optional[Operator]:
    consumers = graph.consumers_of(tensor)
    return consumers[0] if len(consumers) == 1 else None


def _is_graph_input(graph: OperatorGraph, tensor: str) -> bool:
    return graph.producer_of(tensor) is None


_MOVEMENT_TYPES = (Reshape, Transpose)


def _in_chain_position(graph: OperatorGraph, act: Activation) -> bool:
    """Whether ``act`` sits where a Figure-1 chain expects its activation.

    True when the activation privately bridges a compute-intensive producer
    to a single Gemm/Conv2d/Elementwise consumer — exactly the positions the
    extractor can anchor a match on (the Elementwise case is the gating
    multiply).  Identity elimination must keep such activations: removing
    one can only destroy a match, never enable anything.
    """
    producer = graph.producer_of(act.input_spec.name)
    if producer is None or not producer.is_compute_intensive:
        return False
    if not _sole_consumer(graph, act.input_spec.name, act):
        return False
    consumer = _single_consumer(graph, act.output.name)
    return isinstance(consumer, (Gemm, Conv2d, Elementwise))


# --------------------------------------------------------------------- #
# The opening rule catalog
# --------------------------------------------------------------------- #
class _EliminateDeadMovementOp:
    """Drop dangling data-movement operators (rewrite debris, export noise).

    A reshape, transpose or identity activation whose output nothing
    consumes computes nothing a model output could depend on — semantic
    outputs come from compute or arithmetic operators.  Transpose
    cancellation routinely strands the first transpose of a pair; this rule
    sweeps it up on the next pass.
    """

    name = "eliminate-dead-movement-op"
    anchors: FrozenSet[Type[Operator]] = frozenset(
        {Reshape, Transpose, Activation}
    )

    def match(self, graph: OperatorGraph, op: Operator) -> Optional[GraphEdit]:
        if isinstance(op, Activation) and op.kind is not ActivationKind.IDENTITY:
            return None
        if graph.consumers_of(op.output.name):
            return None
        return GraphEdit(drop=(op.name,))


class _EliminateIdentityActivation:
    """Remove identity activations that are not in chain position.

    Match: an ``Activation(IDENTITY)`` with at least one consumer.
    Guard: the activation must *not* sit in chain position
    (:func:`_in_chain_position`) — there it is load-bearing for extraction,
    and it is exactly the configuration :class:`_InsertChainActivation`
    establishes, so eliminating it would oscillate.
    Substitution: drop the activation and rewire its consumers to its input.
    """

    name = "eliminate-identity-activation"
    anchors: FrozenSet[Type[Operator]] = frozenset({Activation})

    def match(self, graph: OperatorGraph, op: Operator) -> Optional[GraphEdit]:
        assert isinstance(op, Activation)
        if op.kind is not ActivationKind.IDENTITY:
            return None
        if not graph.consumers_of(op.output.name):
            return None  # dead: _EliminateDeadMovementOp's case
        if _in_chain_position(graph, op):
            return None
        return GraphEdit(
            drop=(op.name,), rename=((op.output.name, op.input_spec.name),)
        )


class _EliminateReshape:
    """Rewire consumers of an interior reshape straight to its input.

    Consumers keep their declared shapes — edge validation is by element
    count and dtype, both of which a reshape preserves — so the reshape
    becomes unreferenced and is dropped.  This is the transpose/reshape
    "sinking" of the module docstring taken to its endpoint: an interior
    reshape sinks all the way out of existence.
    """

    name = "eliminate-reshape"
    anchors: FrozenSet[Type[Operator]] = frozenset({Reshape})

    def match(self, graph: OperatorGraph, op: Operator) -> Optional[GraphEdit]:
        assert isinstance(op, Reshape)
        if not graph.consumers_of(op.output.name):
            return None  # dead: swept separately
        return GraphEdit(
            drop=(op.name,), rename=((op.output.name, op.input_spec.name),)
        )


class _CancelDoubleTranspose:
    """Cancel ``Transpose(Transpose(x))`` by rewiring consumers to ``x``.

    Only the outer transpose is dropped; the inner one may have other
    consumers, and when it does not it goes dead and the dead-movement rule
    collects it on a later pass.
    """

    name = "cancel-double-transpose"
    anchors: FrozenSet[Type[Operator]] = frozenset({Transpose})

    def match(self, graph: OperatorGraph, op: Operator) -> Optional[GraphEdit]:
        assert isinstance(op, Transpose)
        inner = graph.producer_of(op.input_spec.name)
        if not isinstance(inner, Transpose):
            return None
        if not graph.consumers_of(op.output.name):
            return None
        return GraphEdit(
            drop=(op.name,), rename=((op.output.name, inner.input_spec.name),)
        )


class _FoldInputTranspose:
    """Fold a transpose of a graph input into a pre-transposed input.

    ``gemm(x, transpose(W))`` defeats extraction because the weight operand
    is a *produced* tensor.  The transpose of a graph input is free at model
    load time (lay the weight out transposed once), so the rule replaces it
    with a synthetic input tensor ``<op>.folded`` holding the transposed
    spec; the consuming GEMM then sees a resident weight again.
    """

    name = "fold-input-transpose"
    anchors: FrozenSet[Type[Operator]] = frozenset({Transpose})

    def match(self, graph: OperatorGraph, op: Operator) -> Optional[GraphEdit]:
        assert isinstance(op, Transpose)
        if not _is_graph_input(graph, op.input_spec.name):
            return None
        if not graph.consumers_of(op.output.name):
            return None
        folded = op.output.with_name(f"{op.name}.folded")
        return GraphEdit(
            drop=(op.name,),
            rename=((op.output.name, folded.name),),
            new_inputs=(folded,),
        )


class _OrderCommutativeOperands:
    """Put the activation-produced operand first on commutative operators.

    The Figure-1 gated FFN is spelled ``act(gate) * up``; exporters emit the
    mirrored ``up * act(gate)`` just as often.  Both orders describe the
    same value (the output spec is shape/dtype-identical either way), so
    the rule pins one canonical spelling.  Guard: fires only when the rhs
    is activation-produced and the lhs is not — once swapped, the guard is
    false forever, which is what makes the rule idempotent.
    """

    name = "order-commutative-operands"
    anchors: FrozenSet[Type[Operator]] = frozenset({Elementwise})

    def match(self, graph: OperatorGraph, op: Operator) -> Optional[GraphEdit]:
        assert isinstance(op, Elementwise)
        rhs_from_act = isinstance(graph.producer_of(op.rhs.name), Activation)
        lhs_from_act = isinstance(graph.producer_of(op.lhs.name), Activation)
        if not rhs_from_act or lhs_from_act:
            return None
        swapped = Elementwise(op.name, op.kind, lhs=op.rhs, rhs=op.lhs)
        return GraphEdit(drop=(op.name,), insert_after=((op.name, swapped),))


class _InsertChainActivation:
    """Normalize activation-free GEMM-GEMM / conv-conv pairs to Figure 1.

    An FFN exported without its activation (or a conv pair whose ReLU was
    constant-folded away) is still a fusible chain — the canonical spelling
    just requires an activation between the two compute operators.  The rule
    inserts an ``Activation(IDENTITY)`` link exactly in chain position,
    where :class:`_EliminateIdentityActivation`'s guard protects it.

    Guards: the producer's output must be privately consumed by the second
    compute operator as its data input, both weight operands must be graph
    inputs, the shapes must compose, and the link name must be free —
    anything the extractor would reject anyway is left alone.
    """

    name = "insert-chain-activation"
    anchors: FrozenSet[Type[Operator]] = frozenset({Gemm, Conv2d})

    def match(self, graph: OperatorGraph, op: Operator) -> Optional[GraphEdit]:
        consumer = _single_consumer(graph, op.output.name)
        if isinstance(op, Gemm):
            if not isinstance(consumer, Gemm):
                return None
            if consumer.lhs.name != op.output.name:
                return None  # feeds the weight slot, not the data slot
            if (consumer.m, consumer.k) != (op.m, op.n):
                return None
            weights = (op.rhs.name, consumer.rhs.name)
        elif isinstance(op, Conv2d):
            if not isinstance(consumer, Conv2d):
                return None
            if consumer.input_spec.name != op.output.name:
                return None
            if consumer.in_channels != op.out_channels:
                return None
            weights = (op.weight.name, consumer.weight.name)
        else:
            return None
        if not all(_is_graph_input(graph, name) for name in weights):
            return None
        link_name = f"{op.name}.link"
        if any(existing.name == link_name for existing in graph.operators):
            return None
        link = Activation(link_name, ActivationKind.IDENTITY, op.output)
        return GraphEdit(
            rename=((op.output.name, link.output.name),),
            insert_after=((op.name, link),),
        )


#: The opening rule catalog, in firing-priority order: eliminations first
#: (they only shrink the graph), then canonicalizations, then the one
#: inserting substitution.  The order is part of the engine's determinism
#: contract — the property suite pins it.
DEFAULT_RULES: Tuple[RewriteRule, ...] = (
    _EliminateDeadMovementOp(),
    _EliminateIdentityActivation(),
    _EliminateReshape(),
    _CancelDoubleTranspose(),
    _FoldInputTranspose(),
    _OrderCommutativeOperands(),
    _InsertChainActivation(),
)


# --------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RewriteProvenance:
    """What :func:`canonicalize` did to one graph.

    Threaded through
    :attr:`~repro.graphs.extract.ExtractionResult.rewrite` into
    :meth:`~repro.graphs.plan.ModelPlan.summary` and the bench report's
    ``rewrite`` block, so a served plan always records which rules shaped
    the graph it was extracted from.

    Example
    -------
    >>> from repro.ir.builders import build_standard_ffn
    >>> graph, _ = build_standard_ffn("demo", m=64, n=128, k=32, l=32)
    >>> result = canonicalize(graph)
    >>> result.provenance.rules_fired      # already canonical: nothing fires
    ()
    >>> result.provenance.to_dict()["ops_eliminated"]
    0
    """

    graph: str
    #: Fire-and-rebuild iterations until the fixpoint (0 = already canonical).
    passes: int
    #: Rule names in firing order (one entry per application).
    rules_fired: Tuple[str, ...]
    ops_before: int
    ops_after: int
    #: Operators removed by elimination rules (same-name drop-and-reinsert
    #: replacements do not count; insertions are recoverable as
    #: ``ops_after - ops_before + ops_eliminated``).
    ops_eliminated: int
    #: Rule scans skipped because no anchor operator type was present.
    rules_pruned: int

    def fired_counts(self) -> Dict[str, int]:
        """Applications per rule name, key-sorted."""
        counts: Dict[str, int] = {}
        for name in self.rules_fired:
            counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, object]:
        """Plain-dictionary form with a pinned key order."""
        return {
            "graph": self.graph,
            "passes": self.passes,
            "rules_fired": list(self.rules_fired),
            "fired_counts": self.fired_counts(),
            "ops_before": self.ops_before,
            "ops_after": self.ops_after,
            "ops_eliminated": self.ops_eliminated,
            "rules_pruned": self.rules_pruned,
        }


@dataclass(frozen=True)
class RewriteResult:
    """The rewritten graph plus its :class:`RewriteProvenance`."""

    graph: OperatorGraph
    provenance: RewriteProvenance

    @property
    def changed(self) -> bool:
        """Whether any rule fired."""
        return bool(self.provenance.rules_fired)


# --------------------------------------------------------------------- #
# The driver
# --------------------------------------------------------------------- #
def canonicalize(
    graph: OperatorGraph,
    rules: Optional[Sequence[RewriteRule]] = None,
    *,
    validate: bool = True,
    max_firings: Optional[int] = None,
) -> RewriteResult:
    """Rewrite ``graph`` to the fixpoint of ``rules`` (default catalog).

    The driver is deterministic by construction: rules are tried in catalog
    order against operators in insertion order, the first match is applied,
    and the scan restarts on the rebuilt graph.  Every pass pre-prunes rules
    whose anchor operator types are absent, so graphs containing none of a
    rule's anchors never pay for scanning it.  The rewritten graph is
    re-validated before returning — a rule that produces a malformed graph
    is a driver bug and fails loudly.

    ``max_firings`` bounds the fixpoint iteration (default
    ``8 * len(graph) + 16``); exceeding it raises
    :class:`~repro.errors.FusionError`, since a sound catalog either shrinks
    the graph or guards itself against re-firing.

    Example
    -------
    >>> from repro.ir.builders import build_gated_ffn
    >>> graph, _ = build_gated_ffn("ffn", m=64, n=128, k=32, l=32)
    >>> canonicalize(graph).changed           # already the Figure-1 spelling
    False
    """
    catalog = tuple(DEFAULT_RULES if rules is None else rules)
    if validate:
        graph.validate()
    bound = (
        max_firings
        if max_firings is not None
        else _FIXPOINT_FACTOR * len(graph) + _FIXPOINT_SLACK
    )
    ops_before = len(graph)
    fired: List[str] = []
    eliminated = 0
    pruned = 0
    passes = 0
    with tracer().span("rewrite.canonicalize", graph=graph.name) as span:
        while True:
            present = {type(op) for op in graph.operators}
            active = [
                rule
                for rule in catalog
                if any(issubclass(kind, tuple(rule.anchors)) for kind in present)
            ]
            pruned += len(catalog) - len(active)
            edit, rule_name = _first_match(graph, active)
            if edit is None:
                break
            if len(fired) >= bound:
                raise FusionError(
                    f"graph {graph.name!r}: rewrite did not reach a fixpoint "
                    f"within {bound} rule firings — the rule set oscillates "
                    f"(last fired: {fired[-3:]})"
                )
            # A drop re-inserted under the same name (operand reordering)
            # is a replacement, not an elimination.
            replaced = {op.name for _, op in edit.insert_after}
            eliminated += sum(1 for name in edit.drop if name not in replaced)
            graph = _apply_edit(graph, edit)
            fired.append(rule_name)
            passes += 1
        if fired:
            graph.validate()
        span.set("passes", passes)
        span.set("rules_fired", len(fired))
        span.set("ops_eliminated", eliminated)
        span.set("rules_pruned", pruned)
    provenance = RewriteProvenance(
        graph=graph.name,
        passes=passes,
        rules_fired=tuple(fired),
        ops_before=ops_before,
        ops_after=len(graph),
        ops_eliminated=eliminated,
        rules_pruned=pruned,
    )
    return RewriteResult(graph=graph, provenance=provenance)


def _first_match(
    graph: OperatorGraph, rules: Sequence[RewriteRule]
) -> Tuple[Optional[GraphEdit], str]:
    """The first (operator, rule) match in deterministic scan order."""
    for op in graph.operators:
        for rule in rules:
            if not isinstance(op, tuple(rule.anchors)):
                continue
            edit = rule.match(graph, op)
            if edit is not None:
                return edit, rule.name
    return None, ""
