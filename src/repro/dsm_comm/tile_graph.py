"""Tile graphs: the dataflow picture of Figure 8.

A tile graph makes the fused kernel's cluster-level dataflow explicit: nodes
are per-block tile computations (matmul, activation, elementwise) or
dsm_comm collectives, and edges carry tiles between them.  The graph serves
three purposes in the reproduction:

* it is the structure the code generator walks when emitting the prologue /
  mainloop / epilogue of a fused kernel,
* the functional executor follows it to compute real NumPy results,
* tests assert structural properties on it (e.g. a gated FFN's first
  exchange is a Mul, a standard FFN's is an Add).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.dsm_comm.geometry import ClusterGeometry
from repro.dsm_comm.primitives import CombineOp, PrimitiveKind
from repro.ir.graph import ChainKind, GemmChainSpec


class TileOpKind(Enum):
    """Node kinds appearing in a tile graph."""

    MATMUL = "matmul"
    ACTIVATION = "activation"
    ELEMENTWISE = "elementwise"
    ALL_EXCHANGE = PrimitiveKind.ALL_EXCHANGE.value
    SHUFFLE = PrimitiveKind.SHUFFLE.value
    REDUCE_SCATTER = PrimitiveKind.REDUCE_SCATTER.value
    STORE = "store"


@dataclass(frozen=True)
class TileNode:
    """One node of the tile graph.

    ``coords`` identifies which block of the cluster owns the node (its
    (m, n, k) position for GEMM0-phase nodes, (m, l) position for
    GEMM1/store-phase nodes); ``phase`` is one of ``"gemm0"``, ``"gemm1"``
    or ``"store"``.
    """

    name: str
    kind: TileOpKind
    phase: str
    coords: Tuple[int, ...] = ()
    combine: CombineOp = CombineOp.NONE


@dataclass
class TileGraph:
    """The cluster-level dataflow graph of one fused kernel."""

    chain: GemmChainSpec
    geometry: ClusterGeometry
    graph: nx.DiGraph = field(default_factory=nx.DiGraph)

    def add_node(self, node: TileNode) -> TileNode:
        """Insert a node (name must be unique)."""
        if self.graph.has_node(node.name):
            raise ValueError(f"duplicate tile node {node.name!r}")
        self.graph.add_node(node.name, node=node)
        return node

    def add_edge(self, src: TileNode, dst: TileNode) -> None:
        """Connect two previously added nodes."""
        for endpoint in (src, dst):
            if not self.graph.has_node(endpoint.name):
                raise ValueError(f"unknown tile node {endpoint.name!r}")
        self.graph.add_edge(src.name, dst.name)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def nodes(self, kind: Optional[TileOpKind] = None) -> List[TileNode]:
        """All nodes, optionally filtered by kind."""
        found = [data["node"] for _, data in self.graph.nodes(data=True)]
        if kind is not None:
            found = [node for node in found if node.kind is kind]
        return found

    def topological_order(self) -> List[TileNode]:
        """Nodes in a valid execution order."""
        return [self.graph.nodes[name]["node"] for name in nx.topological_sort(self.graph)]


def build_tile_graph(chain: GemmChainSpec, geometry: ClusterGeometry) -> TileGraph:
    """Construct the Figure 8 tile graph for one cluster.

    The graph covers a single cluster tile: ``cls_m x cls_n x cls_k`` blocks
    in the GEMM0 phase, regrouped into shuffle groups for the GEMM1 phase and
    reduce groups for the store phase.
    """
    tile_graph = TileGraph(chain=chain, geometry=geometry)
    gated = chain.kind is ChainKind.GATED_FFN
    exchange_combine = CombineOp.MUL if gated else CombineOp.ADD

    # ---------------- GEMM0 phase ---------------- #
    # One matmul node per (m, n, k) block coordinate; K-partition partials
    # meet in an all_exchange node per (m, n) coordinate.
    gemm0_outputs: Dict[Tuple[int, int], TileNode] = {}
    for mi in range(geometry.cls_m):
        for ni in range(geometry.cls_n):
            partials: List[TileNode] = []
            for ki in range(geometry.cls_k):
                matmul = tile_graph.add_node(
                    TileNode(
                        name=f"gemm0_m{mi}_n{ni}_k{ki}",
                        kind=TileOpKind.MATMUL,
                        phase="gemm0",
                        coords=(mi, ni, ki),
                    )
                )
                partials.append(matmul)
            if geometry.needs_all_exchange or gated:
                exchange = tile_graph.add_node(
                    TileNode(
                        name=f"all_exchange_m{mi}_n{ni}",
                        kind=TileOpKind.ALL_EXCHANGE,
                        phase="gemm0",
                        coords=(mi, ni),
                        combine=exchange_combine,
                    )
                )
                for partial in partials:
                    tile_graph.add_edge(partial, exchange)
                c_tile = exchange
            else:
                c_tile = partials[0]
            activation = tile_graph.add_node(
                TileNode(
                    name=f"act_m{mi}_n{ni}",
                    kind=TileOpKind.ACTIVATION,
                    phase="gemm0",
                    coords=(mi, ni),
                )
            )
            tile_graph.add_edge(c_tile, activation)
            gemm0_outputs[(mi, ni)] = activation

    # ---------------- GEMM1 phase ---------------- #
    # Shuffle groups gather the C slices a block needs, then each block
    # multiplies with its D tile to produce a partial E.
    gemm1_partials: Dict[Tuple[int, int], List[TileNode]] = {}
    shuffle_size = geometry.cls_shuffle
    for mi in range(geometry.cls_m):
        n_coords = list(range(geometry.cls_n))
        groups = [
            n_coords[start : start + shuffle_size]
            for start in range(0, len(n_coords), shuffle_size)
        ]
        for group_index, group in enumerate(groups):
            sources = [gemm0_outputs[(mi, ni)] for ni in group]
            if geometry.needs_shuffle:
                shuffle = tile_graph.add_node(
                    TileNode(
                        name=f"shuffle_m{mi}_g{group_index}",
                        kind=TileOpKind.SHUFFLE,
                        phase="gemm1",
                        coords=(mi, group_index),
                    )
                )
                for source in sources:
                    tile_graph.add_edge(source, shuffle)
                c_source: TileNode = shuffle
            else:
                c_source = sources[0]
            for li in range(geometry.cls_l // max(1, geometry.cls_k)):
                matmul = tile_graph.add_node(
                    TileNode(
                        name=f"gemm1_m{mi}_g{group_index}_l{li}",
                        kind=TileOpKind.MATMUL,
                        phase="gemm1",
                        coords=(mi, group_index, li),
                    )
                )
                tile_graph.add_edge(c_source, matmul)
                gemm1_partials.setdefault((mi, li), []).append(matmul)

    # ---------------- Store phase ---------------- #
    for (mi, li), partials in gemm1_partials.items():
        if len(partials) > 1 and geometry.needs_reduce_scatter:
            reduce_node = tile_graph.add_node(
                TileNode(
                    name=f"reduce_m{mi}_l{li}",
                    kind=TileOpKind.REDUCE_SCATTER,
                    phase="store",
                    coords=(mi, li),
                    combine=CombineOp.ADD,
                )
            )
            for partial in partials:
                tile_graph.add_edge(partial, reduce_node)
            final = reduce_node
        else:
            final = partials[0]
        store = tile_graph.add_node(
            TileNode(
                name=f"store_m{mi}_l{li}",
                kind=TileOpKind.STORE,
                phase="store",
                coords=(mi, li),
            )
        )
        tile_graph.add_edge(final, store)

    return tile_graph
