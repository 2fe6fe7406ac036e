"""Operator graphs and the canonical GEMM-chain description.

Two representations coexist, mirroring the paper:

* :class:`OperatorGraph` — a general DAG of :class:`~repro.ir.ops.Operator`
  nodes.  End-to-end models and graph-level baselines (TASO-like
  substitution, Relay-like epilogue fusion) operate on this.
* :class:`GemmChainSpec` — the canonical fusible chain of two
  compute-intensive operators with loop dimensions (M, N, K, L) as drawn in
  Figure 2.  The dataflow analyzer and the fusion search engine operate on
  this compact form; convolution chains are lowered to it through im2col.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import FusionError
from repro.ir.ops import ActivationKind, Operator
from repro.ir.tensor import DType, TensorSpec


class ChainKind(Enum):
    """The three fusible chain shapes of Figure 1."""

    STANDARD_FFN = "standard_ffn"
    GATED_FFN = "gated_ffn"
    CONV_CHAIN = "conv_chain"


#: Loop dimension names used throughout the project, in canonical order.
DIMENSIONS = ("m", "n", "k", "l")


@dataclass(frozen=True)
class GemmChainSpec:
    """A two-GEMM fusible chain with loop dimensions (M, N, K, L).

    Following the paper's convention, GEMM0 computes
    ``C[M, N] = A[M, K] @ B[K, N]`` and GEMM1 computes
    ``E[M, L] = C[M, N] @ D[N, L]``; an activation sits between them.  A
    gated FFN runs two parallel GEMM0 branches whose results are combined
    with an elementwise multiply before GEMM1.

    Parameters
    ----------
    name:
        Workload identifier (for example ``"G5"`` or ``"llama-2-7b-ffn"``).
    m, n, k, l:
        The four loop extents.
    kind:
        Chain shape (standard FFN, gated FFN or im2col-lowered conv chain).
    activation:
        Activation applied to the intermediate matrix C.
    dtype:
        Element datatype.

    Example
    -------
    >>> spec = GemmChainSpec("demo", m=128, n=512, k=64, l=64)
    >>> spec.scaled(m=64).m          # rebin the runtime token dimension
    64
    >>> spec.total_flops() == 2 * 128 * 512 * 64 + 2 * 128 * 64 * 512
    True
    >>> sorted(spec.canonical_dict())   # the plan-cache identity fields
    ['activation', 'dtype', 'k', 'kind', 'l', 'm', 'n']
    """

    name: str
    m: int
    n: int
    k: int
    l: int
    kind: ChainKind = ChainKind.STANDARD_FFN
    activation: ActivationKind = ActivationKind.RELU
    dtype: DType = DType.FP16

    def __post_init__(self) -> None:
        for dim_name in DIMENSIONS:
            if getattr(self, dim_name) <= 0:
                raise ValueError(f"dimension {dim_name} must be positive")

    # ------------------------------------------------------------------ #
    # Dimensions and shapes
    # ------------------------------------------------------------------ #
    def dimension_sizes(self) -> Dict[str, int]:
        """Loop extents keyed by dimension name."""
        return {dim: getattr(self, dim) for dim in DIMENSIONS}

    @property
    def num_gemm0_branches(self) -> int:
        """Number of parallel GEMM0 branches (2 for gated FFN, else 1)."""
        return 2 if self.kind is ChainKind.GATED_FFN else 1

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return self.dtype.itemsize

    # Tensor byte sizes ------------------------------------------------- #
    @property
    def a_bytes(self) -> int:
        """Size of input activation A[M, K]."""
        return self.m * self.k * self.itemsize

    @property
    def b_bytes(self) -> int:
        """Size of GEMM0 weights (both branches for a gated FFN)."""
        return self.k * self.n * self.itemsize * self.num_gemm0_branches

    @property
    def c_bytes(self) -> int:
        """Size of the intermediate matrix C[M, N]."""
        return self.m * self.n * self.itemsize

    @property
    def d_bytes(self) -> int:
        """Size of GEMM1 weights D[N, L]."""
        return self.n * self.l * self.itemsize

    @property
    def e_bytes(self) -> int:
        """Size of the output matrix E[M, L]."""
        return self.m * self.l * self.itemsize

    # FLOPs -------------------------------------------------------------- #
    def gemm0_flops(self) -> int:
        """FLOPs of the first GEMM (all branches)."""
        return 2 * self.m * self.n * self.k * self.num_gemm0_branches

    def gemm1_flops(self) -> int:
        """FLOPs of the second GEMM."""
        return 2 * self.m * self.l * self.n

    def total_flops(self) -> int:
        """FLOPs of the whole chain (activations/elementwise excluded)."""
        return self.gemm0_flops() + self.gemm1_flops()

    # Global-memory traffic bounds --------------------------------------- #
    def weight_bytes(self) -> int:
        """Bytes of weights that must be read at least once."""
        return self.b_bytes + self.d_bytes

    def io_bytes_min(self) -> int:
        """Lower bound on global traffic: inputs + weights + final output."""
        return self.a_bytes + self.weight_bytes() + self.e_bytes

    def unfused_global_bytes(self) -> int:
        """Global traffic of the unfused execution.

        Each GEMM reads its operands and writes its result, so the
        intermediate C makes a full round trip (one write, one read), and
        the activation makes another (read + write) when it runs as a
        separate elementwise kernel.
        """
        gemm0 = self.a_bytes + self.b_bytes + self.c_bytes
        activation = 2 * self.c_bytes
        gemm1 = self.c_bytes + self.d_bytes + self.e_bytes
        if self.kind is ChainKind.GATED_FFN:
            # The two branch results are combined by a separate elementwise
            # multiply: read both, write one.
            activation += self.c_bytes
        return gemm0 + activation + gemm1

    def intermediate_bytes(self) -> int:
        """Bytes of intermediate data that fusion must keep on chip."""
        return self.c_bytes * self.num_gemm0_branches

    def arithmetic_intensity(self) -> float:
        """FLOPs per byte at the fused lower bound."""
        return self.total_flops() / self.io_bytes_min()

    # Serialization and canonical identity ------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        """Full serialization (including the name) for plan persistence."""
        payload = self.canonical_dict()
        payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GemmChainSpec":
        """Rebuild a chain spec from :meth:`to_dict` output."""
        return cls(
            name=str(payload["name"]),
            m=int(payload["m"]),
            n=int(payload["n"]),
            k=int(payload["k"]),
            l=int(payload["l"]),
            kind=ChainKind(payload["kind"]),
            activation=ActivationKind(payload["activation"]),
            dtype=DType(payload["dtype"]),
        )

    def canonical_dict(self) -> Dict[str, object]:
        """The chain's canonical identity: everything except the name.

        Two chains with equal canonical dictionaries admit the same fusion
        plans, so the plan cache keys on this form — a workload compiled
        under one name serves requests for an identically shaped chain
        registered under another.
        """
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "l": self.l,
            "kind": self.kind.value,
            "activation": self.activation.value,
            "dtype": self.dtype.value,
        }

    def canonical_hash(self) -> str:
        """Stable hex digest of the canonical identity."""
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def same_shape(self, other: "GemmChainSpec") -> bool:
        """Whether ``other`` is canonically identical (names may differ)."""
        return self.canonical_dict() == other.canonical_dict()

    def scaled(self, m: Optional[int] = None, name: Optional[str] = None) -> "GemmChainSpec":
        """Return a copy with a different M (used by the runtime binning)."""
        return GemmChainSpec(
            name=name or self.name,
            m=m if m is not None else self.m,
            n=self.n,
            k=self.k,
            l=self.l,
            kind=self.kind,
            activation=self.activation,
            dtype=self.dtype,
        )


class OperatorGraph:
    """A DAG of operators connected through named tensors.

    Edges are implied by tensor names: an operator that lists tensor ``t``
    among its inputs consumes the output of whichever operator produced
    ``t``.  Graph inputs are tensors no operator produces; passing
    ``inputs=`` declares them explicitly, which lets :meth:`validate` reject
    edges that reference tensors no operator produces and no input declares
    (usually a typo in a tensor name).

    Example
    -------
    >>> from repro.ir.builders import build_standard_ffn
    >>> graph, _ = build_standard_ffn("demo", m=64, n=128, k=32, l=32)
    >>> len(graph)                            # gemm0 -> activation -> gemm1
    3
    >>> [op.name for op in graph.topological_order()]
    ['demo.gemm0', 'demo.act', 'demo.gemm1']
    >>> graph.validate() is graph             # raises FusionError if malformed
    True
    """

    def __init__(
        self,
        name: str,
        operators: Optional[Sequence[Operator]] = None,
        inputs: Optional[Sequence[TensorSpec]] = None,
    ):
        self.name = name
        self._operators: List[Operator] = []
        self._names: Set[str] = set()
        self._producers: Dict[str, Operator] = {}
        # Tensor name -> its consumers, in insertion order, one entry per
        # operator (an operator reading a tensor twice consumes it once).
        self._consumers: Dict[str, List[Operator]] = {}
        self._declared_inputs: Optional[Dict[str, TensorSpec]] = (
            {tensor.name: tensor for tensor in inputs} if inputs is not None else None
        )
        for op in operators or []:
            self.add(op)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, op: Operator) -> Operator:
        """Add an operator to the graph and return it."""
        if op.name in self._names:
            raise ValueError(f"duplicate operator name {op.name!r}")
        out_name = op.output.name
        if out_name in self._producers:
            raise ValueError(f"tensor {out_name!r} already has a producer")
        self._operators.append(op)
        self._names.add(op.name)
        self._producers[out_name] = op
        for tensor_name in dict.fromkeys(tensor.name for tensor in op.inputs):
            self._consumers.setdefault(tensor_name, []).append(op)
        return op

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def operators(self) -> List[Operator]:
        """Operators in insertion order (a valid topological order)."""
        return list(self._operators)

    def __len__(self) -> int:
        return len(self._operators)

    @property
    def declared_inputs(self) -> Optional[List[TensorSpec]]:
        """The explicitly declared input tensors, or ``None`` when implicit.

        Graph surgery (the rewrite layer) uses this to rebuild a graph with
        the same input declaration discipline as the original: a graph that
        declared its inputs keeps rejecting tensor-name typos after rewriting.
        """
        if self._declared_inputs is None:
            return None
        return list(self._declared_inputs.values())

    def producer_of(self, tensor_name: str) -> Optional[Operator]:
        """The operator producing ``tensor_name``, or ``None`` for inputs."""
        return self._producers.get(tensor_name)

    def consumers_of(self, tensor_name: str) -> List[Operator]:
        """Operators consuming ``tensor_name``, in insertion order."""
        return list(self._consumers.get(tensor_name, ()))

    def input_tensors(self) -> List[TensorSpec]:
        """Tensors read by the graph but produced by no operator."""
        seen: Dict[str, TensorSpec] = {}
        for op in self._operators:
            for tensor in op.inputs:
                if tensor.name not in self._producers and tensor.name not in seen:
                    seen[tensor.name] = tensor
        return list(seen.values())

    def output_tensors(self) -> List[TensorSpec]:
        """Tensors produced by an operator but consumed by none."""
        outputs = []
        for op in self._operators:
            if not self.consumers_of(op.output.name):
                outputs.append(op.output)
        return outputs

    def intermediate_tensors(self) -> List[TensorSpec]:
        """Tensors produced by one operator and consumed by another."""
        intermediates = []
        for op in self._operators:
            if self.consumers_of(op.output.name):
                intermediates.append(op.output)
        return intermediates

    def total_flops(self) -> int:
        """Sum of operator FLOP counts."""
        return sum(op.flops() for op in self._operators)

    def topological_order(self) -> List[Operator]:
        """Operators sorted topologically (:class:`FusionError` on cycles).

        The sort is Kahn's, generation by generation.  Operators with no
        producer in the graph come first, in insertion order.  Each later
        generation holds the operators whose last producer sat in the one
        before; they come in the order that generation's operators are
        walked, each operator's consumers in insertion order.  An operator
        reading a producer's tensor twice depends on it once.  Chain
        extraction breaks ties in this order, so canonical chain hashes and
        plan-cache keys depend on it.
        """
        consumers = self._consumer_lists()
        pending = Counter(op.name for ops in consumers.values() for op in ops)
        order = [op for op in self._operators if not pending[op.name]]
        # The list grows while it is walked: a FIFO queue, so generations
        # come out whole and in order.
        for op in order:
            for consumer in consumers[op.name]:
                pending[consumer.name] -= 1
                if not pending[consumer.name]:
                    order.append(consumer)
        if len(order) < len(self._operators):
            raise FusionError(self._cycle_message(consumers))
        return order

    def _consumer_lists(self) -> Dict[str, List[Operator]]:
        """Each operator's distinct consumers, in consumer insertion order."""
        return {
            op.name: self._consumers.get(op.output.name, [])
            for op in self._operators
        }

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "OperatorGraph":
        """Check structural well-formedness, raising :class:`FusionError`.

        Three classes of malformed graph are rejected with a message naming
        the offending operators, instead of surfacing later as an obscure
        failure deep inside chain extraction or scheduling:

        * **cycles** — operators whose tensors mutually depend on each other;
        * **inconsistent edges** — a consumed tensor spec whose element count
          or dtype disagrees with what its producer actually emits (pure
          reshapes between producer and consumer are legal);
        * **unknown producers** — when the graph declares its input tensors
          (``inputs=``), a consumed tensor that is neither produced by any
          operator nor declared as an input.

        Returns the graph itself so validation chains into construction:
        ``compile_graph(OperatorGraph(...).validate())``.
        """
        for op in self._operators:
            for tensor in op.inputs:
                producer = self._producers.get(tensor.name)
                if producer is None:
                    if (
                        self._declared_inputs is not None
                        and tensor.name not in self._declared_inputs
                    ):
                        raise FusionError(
                            f"graph {self.name!r}: operator {op.name!r} consumes "
                            f"tensor {tensor.name!r}, which no operator produces "
                            "and the graph does not declare as an input"
                        )
                    continue
                produced = producer.output
                if (
                    produced.num_elements != tensor.num_elements
                    or produced.dtype is not tensor.dtype
                ):
                    raise FusionError(
                        f"graph {self.name!r}: edge {producer.name!r} -> "
                        f"{op.name!r} is inconsistent: produced "
                        f"{produced.shape}/{produced.dtype.value} vs consumed "
                        f"{tensor.shape}/{tensor.dtype.value}"
                    )
        self.topological_order()
        return self

    def _cycle_message(self, consumers: Dict[str, List[Operator]]) -> str:
        """Name the first cycle a depth-first search in insertion order meets."""
        finished: Set[str] = set()
        for root in self._operators:
            if root.name in finished:
                continue
            path = [root.name]
            branches = [iter(consumers[root.name])]
            while branches:
                consumer = next(branches[-1], None)
                if consumer is None:
                    finished.add(path.pop())
                    branches.pop()
                elif consumer.name in path:
                    cycle = path[path.index(consumer.name):] + [consumer.name]
                    return f"graph {self.name!r} contains a cycle: {' -> '.join(cycle)}"
                elif consumer.name not in finished:
                    path.append(consumer.name)
                    branches.append(iter(consumers[consumer.name]))
        raise AssertionError("no cycle found")

    def compute_intensive_operators(self) -> List[Operator]:
        """GEMM/conv operators, the fusion anchors."""
        return [op for op in self._operators if op.is_compute_intensive]
