"""The ``dsm_comm`` primitive: cluster-level communication abstraction.

Section IV-A of the paper introduces a small set of primitives that describe
every inter-SM data exchange a fused kernel needs:

* :data:`~repro.dsm_comm.primitives.PrimitiveKind.ALL_EXCHANGE` — intra-
  cluster all-reduce (Add, or Mul for gated FFNs) of partial sums produced by
  spatially partitioning the K dimension,
* :data:`~repro.dsm_comm.primitives.PrimitiveKind.SHUFFLE` — ring exchange of
  intermediate-C slices within a shuffle group so every block sees the full
  row it needs for GEMM1,
* :data:`~repro.dsm_comm.primitives.PrimitiveKind.REDUCE_SCATTER` — intra-
  cluster accumulation of partial E tiles across shuffle groups,
* :data:`~repro.dsm_comm.primitives.PrimitiveKind.INTER_CLUSTER_REDUCE` —
  TMA-based atomic reduction across clusters through L2/global memory.

The geometry that drives them lives in
:class:`~repro.dsm_comm.geometry.ClusterGeometry`; NumPy reference
implementations, used by the functional executor to prove the fused dataflow
correct, live in :mod:`repro.dsm_comm.functional`.
"""

from repro.dsm_comm.functional import (
    dsm_all_exchange,
    dsm_reduce_scatter,
    dsm_shuffle,
    inter_cluster_reduce,
)
from repro.dsm_comm.geometry import ClusterGeometry
from repro.dsm_comm.primitives import CommPlan, DsmPrimitive, PrimitiveKind

__all__ = [
    "ClusterGeometry",
    "CommPlan",
    "DsmPrimitive",
    "PrimitiveKind",
    "dsm_all_exchange",
    "dsm_reduce_scatter",
    "dsm_shuffle",
    "inter_cluster_reduce",
]
