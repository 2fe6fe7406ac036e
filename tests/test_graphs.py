"""Tests for the graph compiler subsystem (extraction, plans, serving)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.api import CompileRequest, FlashFuser, FusionError
from repro.graphs import (
    ChainMatch,
    ModelServer,
    compile_graph,
    extract_chains,
)
from repro.graphs.plan import (
    KIND_FUSED,
    KIND_UNFUSED,
    SOURCE_CACHE,
    SOURCE_SEARCH,
    SOURCE_SIMULATED,
    SOURCE_UNFUSABLE,
    assemble_plan,
)
from repro.graphs.rewrite import canonicalize
from repro.ir.builders import (
    build_conv_chain,
    build_gated_ffn,
    build_standard_ffn,
    build_transformer_layer,
)
from repro.ir.graph import ChainKind, GemmChainSpec, OperatorGraph
from repro.ir.ops import Activation, ActivationKind, Elementwise, ElementwiseKind, Gemm
from repro.ir.tensor import TensorSpec
from repro.ir.workloads import (
    GRAPH_ZOO,
    MODEL_ZOO,
    ModelConfig,
    get_chain_spec,
    get_model,
    get_workload,
    list_workloads,
)
from repro.runtime import KernelServer, PlanCache
from repro.sim.engine import PerformanceSimulator

TINY = dict(m=64, n=256, k=128, l=128)


def _tiny_graph(name="graphs-tiny", **dims):
    merged = {**TINY, **dims}
    return build_standard_ffn(name, **merged)


def _gemm(name, lhs, rhs=None):
    rhs = TensorSpec(rhs or f"w{name}", (4, 4))
    return Gemm(name, lhs=TensorSpec(lhs, (4, 4)), rhs=rhs)


def _two_cycle_graph(name):
    # a consumes b's output and vice versa: a.out -> b -> b.out -> a.
    return OperatorGraph(name, [_gemm("a", "b.out"), _gemm("b", "a.out")])


@pytest.fixture(scope="module")
def tiny_compiler(h100):
    with FlashFuser(device=h100, top_k=3, max_tile=128) as compiler:
        yield compiler


# --------------------------------------------------------------------- #
# OperatorGraph validation
# --------------------------------------------------------------------- #
class TestGraphValidation:
    def test_valid_graph_passes_and_chains(self):
        graph, _ = _tiny_graph()
        assert graph.validate() is graph

    def test_cycle_raises_fusion_error(self):
        cases = [
            (_two_cycle_graph("g"), "a -> b -> a"),
            (OperatorGraph("g", [_gemm("s", "s.out")]), "s -> s"),
            # The acyclic prefix p feeds the cycle c1 <-> c2, inserted out of order.
            (
                OperatorGraph(
                    "g",
                    [_gemm("p", "x"), _gemm("c2", "c1.out"), _gemm("c1", "p.out", "c2.out")],
                ),
                "c1 -> c2 -> c1",
            ),
        ]
        for graph, path in cases:
            for entry in (
                OperatorGraph.validate, OperatorGraph.topological_order, extract_chains
            ):
                with pytest.raises(FusionError) as info:
                    entry(graph)
                assert str(info.value) == f"graph 'g' contains a cycle: {path}"

    def test_topological_order_breaks_ties_by_generation(self):
        # Sources come in insertion order, then each generation's children
        # in edge order; sq reads src1.out twice, which is one edge.
        late = Activation("late", ActivationKind.RELU, TensorSpec("src2.out", (4, 4)))
        src1, src2 = _gemm("src1", "x"), _gemm("src2", "y")
        sq = Elementwise("sq", ElementwiseKind.MUL, src1.output, src1.output)
        join = Elementwise("join", ElementwiseKind.ADD, sq.output, late.output)
        graph = OperatorGraph("ties", [late, src1, src2, sq, join])
        assert [op.name for op in graph.topological_order()] == [
            "src1", "src2", "sq", "late", "join",
        ]

    def test_undeclared_input_raises_when_inputs_declared(self):
        x = TensorSpec("x", (8, 8))
        graph = OperatorGraph("typo", inputs=[x])
        graph.add(Gemm("g", lhs=x, rhs=TensorSpec("wieght", (8, 8))))
        with pytest.raises(FusionError, match="wieght"):
            graph.validate()

    def test_implicit_inputs_stay_legal_without_declaration(self):
        x = TensorSpec("x", (8, 8))
        graph = OperatorGraph("implicit")
        graph.add(Gemm("g", lhs=x, rhs=TensorSpec("anything", (8, 8))))
        graph.validate()

    def test_inconsistent_edge_raises_fusion_error(self):
        graph = OperatorGraph("badedge")
        gemm = graph.add(
            Gemm("g0", lhs=TensorSpec("x", (8, 16)), rhs=TensorSpec("w", (16, 32)))
        )
        # Consumer claims g0.out has half the elements it actually has.
        graph.add(
            Activation("act", ActivationKind.RELU, gemm.output.with_shape((8, 16)))
        )
        with pytest.raises(FusionError, match="inconsistent"):
            graph.validate()

    def test_pure_reshape_edges_are_legal(self):
        graph = OperatorGraph("reshape")
        gemm = graph.add(
            Gemm("g0", lhs=TensorSpec("x", (8, 16)), rhs=TensorSpec("w", (16, 32)))
        )
        graph.add(
            Activation("act", ActivationKind.RELU, gemm.output.with_shape((16, 16)))
        )
        graph.validate()


# --------------------------------------------------------------------- #
# Topological order and chain hashes, pinned
# --------------------------------------------------------------------- #
def _order_digest(graph):
    """sha256 over the topological operator names and extracted chain hashes."""
    payload = {
        "order": [op.name for op in graph.topological_order()],
        "chains": [match.chain.canonical_hash() for match in extract_chains(graph).matches],
    }
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def _scrambled(graph):
    """``graph`` with its operators inserted in a fixed non-topological order."""
    operators = sorted(
        graph.operators, key=lambda op: hashlib.sha256(op.name.encode()).hexdigest()
    )
    return OperatorGraph(graph.name, operators, inputs=graph.declared_inputs)


def _pinned_graphs():
    graphs = {}
    for name, factory in GRAPH_ZOO.items():
        for m in (16, 128, 1024):
            graphs[f"zoo:{name}:m{m}"] = graph = factory(m)
            graphs[f"zoo:{name}:m{m}:canonical"] = canonicalize(graph).graph
    for name, model in MODEL_ZOO.items():
        graphs[f"model:{name}:layer"] = model.layer_graph(seq_len=64)
        graphs[f"model:{name}:ffn"] = model.ffn_graph(seq_len=64)
    graphs["scrambled:LLaMA-1B:layer"] = _scrambled(graphs["model:LLaMA-1B:layer"])
    graphs["scrambled:zoo:moe_layer:m128:canonical"] = _scrambled(
        graphs["zoo:moe_layer:m128:canonical"]
    )
    return graphs


#: Chain extraction breaks ties in topological order, so canonical chain
#: hashes and plan-cache keys change whenever that order does.
GOLDEN_ORDER_DIGESTS = {
    "zoo:residual_block:m16": "4a6a945cb5219f8a71f796e1ad1273232608c0f5a57e435461404892107d1927",
    "zoo:residual_block:m16:canonical": "c0c23c255556c6041fd249f1f0383b1443f8dcbecae7ad976f7c9d3af63641a7",
    "zoo:residual_block:m128": "4a6a945cb5219f8a71f796e1ad1273232608c0f5a57e435461404892107d1927",
    "zoo:residual_block:m128:canonical": "ec7b988f87a3f2e119a163b6674d107a85a2dc06dd57afcada20e414d4062bb5",
    "zoo:residual_block:m1024": "4a6a945cb5219f8a71f796e1ad1273232608c0f5a57e435461404892107d1927",
    "zoo:residual_block:m1024:canonical": "4072a1edb358e4921313ffb7a829e29b6b08319ee011baaf15ce204b2c28b435",
    "zoo:attention_ffn:m16": "a5b6a1dda6d0ae64e5a4ca6749a8dc669575af5d0f021df6082e07a3952e54cc",
    "zoo:attention_ffn:m16:canonical": "2181d48ec1d1d5069a4fe17fc3ff901168fdf7ca6682867368031606fbde486e",
    "zoo:attention_ffn:m128": "a5b6a1dda6d0ae64e5a4ca6749a8dc669575af5d0f021df6082e07a3952e54cc",
    "zoo:attention_ffn:m128:canonical": "2c642a78bf400e647b6493f13f856d6d1bb2b059c20dab51e25ae164cc87d484",
    "zoo:attention_ffn:m1024": "a5b6a1dda6d0ae64e5a4ca6749a8dc669575af5d0f021df6082e07a3952e54cc",
    "zoo:attention_ffn:m1024:canonical": "e7b4ef4f6c929cb1965b305267973f7b1cd46b2a36f0ab92698006abf270f169",
    "zoo:moe_layer:m16": "b59496a5816999b3c4d65d3887e6449aac98948287a37b1628d5231f0898b352",
    "zoo:moe_layer:m16:canonical": "ba235022208d18d7f249c7806ce6d37dc7e7401fff7d1fa1f54d0dccfc3fa5af",
    "zoo:moe_layer:m128": "b59496a5816999b3c4d65d3887e6449aac98948287a37b1628d5231f0898b352",
    "zoo:moe_layer:m128:canonical": "3ef831b07431b64946d2dbc4cc472a2e2ad2f6ded40dd750d4e498cd99e64e89",
    "zoo:moe_layer:m1024": "b59496a5816999b3c4d65d3887e6449aac98948287a37b1628d5231f0898b352",
    "zoo:moe_layer:m1024:canonical": "fabb582001b2a58afc4bf7f18954083450988d5f5a793689c15b793e01657d46",
    "model:GPT-6.7B:layer": "d17c8b74c8115a3641a0116f31ca6c7f84f7103f6a7d5d6dcc7e0d5dd14ff48f",
    "model:GPT-6.7B:ffn": "97813201860e0afc94773f3ae0e5a1b3dd01bd106b3adddc2d1cd575f9618401",
    "model:LLaMA-1B:layer": "e04f6d8b8e0ac43b4381883411706c33c1d6f61af07c63c772494c60eceac8a7",
    "model:LLaMA-1B:ffn": "7ddf70428fb2db8ae1c93bdcf96f8d4e99a2c358513ca955345bff6f5a44707e",
    "model:OPT-1.3B:layer": "3df31bb4eec8e1ba9a08e97b999de0ea1b090a181d910506adc659de5af9b6a2",
    "model:OPT-1.3B:ffn": "957236b053e73bdeda60d6955b0d76d206a990b612f4cd597ae5dc09069d1cd3",
    "model:BERT:layer": "a9ca0e3df6004a51bf8011fdf872b8d722bc035720c788db7805728c04e62044",
    "model:BERT:ffn": "8c0b91fd77fe5585cf9d028806d1f12bb2b99e1b72c3e0d6dfc4bb81e0d70c10",
    "model:GPT-2:layer": "f55c4f95e7f07ebcc877d06552ce0fbd953a13eb5e44189665ef1814b9ca752a",
    "model:GPT-2:ffn": "4a5fd0db8784547522b6edeadfe609684333026d969e2acc19b651b3dcbc33f7",
    "model:GPT-2-Small:layer": "2bb6fcb7a34ae78cb4b5652e64864c6fbee53ce4b4d16d08aeb438fec3145dfa",
    "model:GPT-2-Small:ffn": "6382b42acf6850459b3b303d539f0135118f69ba18dba2ea55f4033b98a528b0",
    "model:llama-3.2-3B:layer": "722328d6aba12ac12f24ff15c5440c58225394de17839ae7e2126cd4c1081650",
    "model:llama-3.2-3B:ffn": "defe7625807771a111b0e5022557b9281ee4a9aa97d48207428e1f81bba78b90",
    "model:Llama-2-7b:layer": "d4dd98e8fc315d8c43e3d53814d89f85b5fedf1e3ec65544aa10ec178dac09f0",
    "model:Llama-2-7b:ffn": "ac1b06e190a0656b1fde8c1c79f3826f0f4b79dc0e20feeefe4a669a65d1ab72",
    "model:Qwen2.5-1.5B:layer": "421be089030a37db5d9632d49b44e30cd5379f4b1939cca32103588b771beacc",
    "model:Qwen2.5-1.5B:ffn": "25ea5ccfe406960794096d830839170470949126a2c2cd272cf6b5fb4007afe8",
    "model:Qwen2.5-3B:layer": "5963d4bd033555e15777acfab5bcb1ce023227f247f418588723de82641c7ad7",
    "model:Qwen2.5-3B:ffn": "2be22261f009441b64603336611d8dd4f1012b1e01bec3f928be972ab2dbdb2b",
    "model:Qwen3-4B:layer": "cf331bc2ad87858511a6256f057fa9ebd86bbb9bf144f0207e01444e8b9d1fe4",
    "model:Qwen3-4B:ffn": "c841b4c8665ccec6991175a3a87c5f3455d47b834ef997559ece6a9501f0258f",
    "model:Qwen3-0.6B:layer": "e1a83d7e4973d8c0f9ba3449d2f40887554540f7be17a112e5d61f4a0e6b4bd2",
    "model:Qwen3-0.6B:ffn": "0f312409485814fdf0f1e559f3b788729774bd5480872ac7acbebf02724037e6",
    "model:Llama3-70B:layer": "edbc54580c70436aa7647f1225fcb878b54a3b68bc1b07c752fbc22e2dd99ca3",
    "model:Llama3-70B:ffn": "a5c8b93c3085bd4abcbe8c7ad0b55b3f662714f31c2a52c56e7c76fe68e90116",
    "model:Qwen2.5-14B:layer": "1d1a64ff7a73f9fd0810f73bfd9b98acaa2f331113a0070aadd94fe83b291bbd",
    "model:Qwen2.5-14B:ffn": "f6fbeaa80b262f41c3a55e7c3fdf20e201189d417ecc973047224bfd64d65d08",
    "model:Qwen2.5-32B:layer": "359abb93a309983a6743d6a281d34a72fd85393e4f53368190cf0d3be7aea1e3",
    "model:Qwen2.5-32B:ffn": "5a30a6ed6467c2c976d3095d08978cc56a54953b4f58b72a12908da03b292feb",
    "scrambled:LLaMA-1B:layer": "36a134b5451fed8745e40ae917aabd0c103262c5d18097f5612305657e0a8989",
    "scrambled:zoo:moe_layer:m128:canonical": (
        "25bb463a628846b991640fb763d25f445ad7b1ef335286abdbbe42cd52050d63"
    ),
}


def test_topological_orders_and_chain_hashes_are_pinned():
    digests = {case: _order_digest(graph) for case, graph in _pinned_graphs().items()}
    assert digests == GOLDEN_ORDER_DIGESTS


def test_import_does_not_load_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    probe = "import sys, repro; print('networkx' in sys.modules)"
    output = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert output.strip() == "False"


# --------------------------------------------------------------------- #
# Chain extraction
# --------------------------------------------------------------------- #
class TestExtraction:
    def test_standard_ffn_roundtrip(self):
        graph, spec = _tiny_graph()
        result = extract_chains(graph)
        assert result.num_chains == 1
        assert not result.residual
        match = result.matches[0]
        assert match.chain.same_shape(spec)
        assert match.chain.canonical_hash() == spec.canonical_hash()
        assert match.kind is ChainKind.STANDARD_FFN
        assert result.flops_coverage() == 1.0

    def test_gated_ffn_branch_matching(self):
        graph, spec = build_gated_ffn("graphs-gated", **TINY)
        result = extract_chains(graph)
        assert result.num_chains == 1
        match = result.matches[0]
        assert match.kind is ChainKind.GATED_FFN
        assert match.chain.same_shape(spec)
        # All five operators (two branches, act, mul, down) are claimed.
        assert len(match.operator_names) == 5
        assert not result.residual

    def test_gated_ffn_matches_with_swapped_branch_insertion(self):
        # Same gated block, but the un-activated branch is inserted first.
        m, n, k, l = TINY["m"], TINY["n"], TINY["k"], TINY["l"]
        a = TensorSpec("x", (m, k))
        graph = OperatorGraph("gated-swapped")
        up = graph.add(Gemm("up", lhs=a, rhs=TensorSpec("b1", (k, n))))
        gate = graph.add(Gemm("gate", lhs=a, rhs=TensorSpec("b0", (k, n))))
        act = graph.add(Activation("act", ActivationKind.SILU, gate.output))
        mul = graph.add(
            Elementwise("mul", ElementwiseKind.MUL, act.output, up.output)
        )
        graph.add(Gemm("down", lhs=mul.output, rhs=TensorSpec("d", (n, l))))
        result = extract_chains(graph)
        assert result.num_chains == 1
        chain = result.matches[0].chain
        assert chain.kind is ChainKind.GATED_FFN
        assert (chain.m, chain.n, chain.k, chain.l) == (m, n, k, l)

    def test_conv_chain_lowering(self):
        graph, spec = build_conv_chain(
            "graphs-conv",
            batch=1,
            in_channels=64,
            height=14,
            width=14,
            out_channels1=64,
            out_channels2=128,
            kernel1=3,
            kernel2=1,
        )
        result = extract_chains(graph)
        assert result.num_chains == 1
        match = result.matches[0]
        assert match.kind is ChainKind.CONV_CHAIN
        assert match.chain.canonical_hash() == spec.canonical_hash()

    def test_zero_fusible_chains(self):
        # GEMM -> GEMM with no activation between them is not a chain shape.
        graph = OperatorGraph("nochains")
        g0 = graph.add(
            Gemm("g0", lhs=TensorSpec("x", (8, 16)), rhs=TensorSpec("w0", (16, 32)))
        )
        graph.add(Gemm("g1", lhs=g0.output, rhs=TensorSpec("w1", (32, 8))))
        result = extract_chains(graph)
        assert result.num_chains == 0
        assert [op.name for op in result.residual] == ["g0", "g1"]
        assert result.flops_coverage() == 0.0

    def test_overlapping_candidates_deterministic_tiebreak(self):
        # G0 -> act1 -> G1 -> act2 -> G2: both triples are candidates and
        # share G1; the earlier region wins, the tail stays residual.
        m, k = 64, 128
        graph = OperatorGraph("overlap")
        g0 = graph.add(
            Gemm("g0", lhs=TensorSpec("x", (m, k)), rhs=TensorSpec("w0", (k, 256)))
        )
        act1 = graph.add(Activation("act1", ActivationKind.RELU, g0.output))
        g1 = graph.add(
            Gemm("g1", lhs=act1.output, rhs=TensorSpec("w1", (256, 128)))
        )
        act2 = graph.add(Activation("act2", ActivationKind.RELU, g1.output))
        graph.add(Gemm("g2", lhs=act2.output, rhs=TensorSpec("w2", (128, 256))))
        result = extract_chains(graph)
        assert result.num_chains == 1
        assert result.matches[0].operator_names == ("g0", "act1", "g1")
        assert [op.name for op in result.residual] == ["act2", "g2"]

    def test_shared_intermediate_blocks_fusion(self):
        # The intermediate feeds a second consumer outside the would-be
        # region, so it must be materialised and the chain is not fusible.
        graph, _ = _tiny_graph("shared")
        gemm0 = graph.operators[0]
        graph.add(
            Elementwise(
                "leak", ElementwiseKind.ADD, gemm0.output, gemm0.output
            )
        )
        result = extract_chains(graph)
        assert result.num_chains == 0

    def test_produced_weight_blocks_fusion(self):
        # A GEMM whose rhs is itself produced by the graph is not a
        # weight-resident chain.
        m, k, n = 32, 32, 32
        graph = OperatorGraph("produced-weight")
        wgen = graph.add(
            Gemm("wgen", lhs=TensorSpec("seed", (k, k)), rhs=TensorSpec("ws", (k, n)))
        )
        g0 = graph.add(Gemm("g0", lhs=TensorSpec("x", (m, k)), rhs=wgen.output))
        act = graph.add(Activation("act", ActivationKind.RELU, g0.output))
        graph.add(Gemm("g1", lhs=act.output, rhs=TensorSpec("d", (n, 16))))
        result = extract_chains(graph)
        assert result.num_chains == 0

    def test_workload_suite_extraction_identity(self):
        # Acceptance: every workload graph yields exactly its table chain.
        for workload_id in list_workloads():
            config = get_workload(workload_id)
            result = extract_chains(config.to_graph())
            assert result.num_chains == 1, workload_id
            assert (
                result.matches[0].chain.canonical_hash()
                == config.to_spec().canonical_hash()
            ), workload_id
            assert not result.residual, workload_id

    def test_model_zoo_ffn_graph_identity(self):
        from repro.experiments.fig17_e2e_sglang import WORKLOAD_MODELS

        for _, model_name in WORKLOAD_MODELS:
            model = get_model(model_name)
            result = extract_chains(model.ffn_graph(seq_len=128))
            assert result.num_chains == 1, model_name
            assert result.matches[0].chain.same_shape(
                model.ffn_chain(seq_len=128)
            ), model_name

    def test_transformer_layer_partition(self):
        graph = build_transformer_layer(
            "layer", m=64, hidden=128, intermediate=256,
            ffn_kind=ChainKind.GATED_FFN,
        )
        result = extract_chains(graph)
        assert result.num_chains == 1
        assert result.matches[0].kind is ChainKind.GATED_FFN
        assert [op.name for op in result.residual] == [
            "layer.attn_proj",
            "layer.residual1",
            "layer.residual2",
        ]
        assert 0.0 < result.flops_coverage() < 1.0


# --------------------------------------------------------------------- #
# compile_graph / ModelPlan
# --------------------------------------------------------------------- #
class TestCompileGraph:
    def test_pure_ffn_plan_matches_direct_compile(self, tiny_compiler):
        graph, spec = _tiny_graph("plan-direct")
        direct = tiny_compiler.compile(spec)
        plan = compile_graph(graph, compiler=tiny_compiler)
        assert plan.time_us == pytest.approx(direct.time_us)
        assert len(plan.segments) == 1
        segment = plan.segments[0]
        assert segment.kind == KIND_FUSED
        assert segment.kernel is not None
        # Identical plans; only the chain's provenance name differs (the
        # extractor names chains after the graph region they came from).
        extracted_summary = dict(segment.kernel.plan.summary())
        direct_summary = dict(direct.plan.summary())
        assert extracted_summary.pop("workload") == "plan-direct/plan-direct.gemm0"
        direct_summary.pop("workload")
        assert extracted_summary == direct_summary

    def test_layer_plan_orders_segments_topologically(self, tiny_compiler):
        graph = build_transformer_layer("plan-layer", m=64, hidden=128, intermediate=256)
        plan = compile_graph(graph, compiler=tiny_compiler)
        kinds = [segment.kind for segment in plan.segments]
        assert kinds == [KIND_UNFUSED, KIND_UNFUSED, KIND_FUSED, KIND_UNFUSED]
        names = [segment.name for segment in plan.segments]
        assert names[0] == "plan-layer.attn_proj"
        assert names[-1] == "plan-layer.residual2"
        assert plan.residual_time_us > 0
        assert plan.fused_time_us > 0
        assert plan.time_us == pytest.approx(
            plan.fused_time_us + plan.residual_time_us
        )
        assert plan.speedup_vs_unfused() > 1.0
        summary = plan.summary()
        assert summary["fused_chains"] == 1
        assert summary["residual_ops"] == 3
        rows = plan.rows()
        assert [row["segment"] for row in rows] == names

    def test_residual_sources_are_simulated(self, tiny_compiler):
        graph = build_transformer_layer("plan-src", m=64, hidden=128, intermediate=256)
        plan = compile_graph(graph, compiler=tiny_compiler)
        sources = {segment.name: segment.source for segment in plan.segments}
        assert sources["plan-src.attn_proj"] == SOURCE_SIMULATED
        fused = plan.fused_segments[0]
        assert fused.source in (SOURCE_SEARCH, SOURCE_CACHE)

    def test_plan_cache_hit_on_second_compile(self, h100, tmp_path):
        graph, spec = _tiny_graph("plan-cache")
        with FlashFuser(
            device=h100, top_k=3, max_tile=128, cache=PlanCache(directory=tmp_path)
        ) as compiler:
            cold = compile_graph(graph, compiler=compiler)
            warm = compile_graph(graph, compiler=compiler)
            assert cold.cache_hits == 0
            assert warm.cache_hits == 1
            assert warm.fused_segments[0].source == SOURCE_CACHE
            assert warm.time_us == pytest.approx(cold.time_us)
            # Bit-identical cache keys: the extracted chain keys exactly as
            # the hand-built spec does.
            extracted = extract_chains(graph).matches[0].chain
            assert compiler.cache_key(extracted) == compiler.cache_key(spec)

    def test_direct_compile_then_graph_compile_shares_cache(self, h100, tmp_path):
        graph, spec = _tiny_graph("plan-shared-cache")
        with FlashFuser(
            device=h100, top_k=3, max_tile=128, cache=PlanCache(directory=tmp_path)
        ) as compiler:
            compiler.compile(spec)
            plan = compile_graph(graph, compiler=compiler)
            assert plan.cache_hits == 1

    def test_unfusable_chain_degrades_to_unfused_segment(self, h100):
        # GPT-6.7B-sized FFN with DSM off has no feasible fused plan.
        graph, _ = _tiny_graph("plan-unfusable", m=128, n=16384, k=4096, l=4096)
        with FlashFuser(
            device=h100, include_dsm=False, top_k=3, max_tile=128
        ) as compiler:
            plan = compile_graph(graph, compiler=compiler)
        assert len(plan.fused_segments) == 0
        segment = plan.segments[0]
        assert segment.source == SOURCE_UNFUSABLE
        assert segment.kind == KIND_UNFUSED
        assert segment.time_us == pytest.approx(segment.unfused_time_us)
        assert plan.speedup_vs_unfused() == pytest.approx(1.0)

    def test_identical_chains_compile_once(self, tiny_compiler):
        # Two canonically identical FFN branches off the same input: one
        # fusion search, one kernel object shared by both fused segments.
        m, k, n, l = 64, 128, 256, 128
        x = TensorSpec("x", (m, k))
        graph = OperatorGraph("dedup")
        for branch in ("a", "b"):
            g0 = graph.add(
                Gemm(f"g0{branch}", lhs=x, rhs=TensorSpec(f"w0{branch}", (k, n)))
            )
            act = graph.add(
                Activation(f"act{branch}", ActivationKind.RELU, g0.output)
            )
            graph.add(
                Gemm(
                    f"g1{branch}",
                    lhs=act.output,
                    rhs=TensorSpec(f"w1{branch}", (n, l)),
                )
            )
        plan = compile_graph(graph, compiler=tiny_compiler)
        assert len(plan.fused_segments) == 2
        first, second = plan.fused_segments
        assert first.chain.canonical_hash() == second.chain.canonical_hash()
        assert first.kernel is second.kernel

    def test_owned_compiler_is_closed(self, h100, monkeypatch):
        closed = {"count": 0}
        original = FlashFuser.close

        def counting(self):
            closed["count"] += 1
            original(self)

        monkeypatch.setattr(FlashFuser, "close", counting)
        graph, _ = _tiny_graph("plan-owned")
        plan = compile_graph(graph, device=h100, top_k=3, max_tile=128)
        assert plan.time_us > 0
        assert closed["count"] == 1

    def test_compiler_and_overrides_are_exclusive(self, tiny_compiler):
        graph, _ = _tiny_graph("plan-exclusive")
        with pytest.raises(ValueError):
            compile_graph(graph, compiler=tiny_compiler, top_k=5)

    def test_malformed_graph_fails_before_compiling(self, tiny_compiler):
        graph = _two_cycle_graph("bad")
        with pytest.raises(FusionError, match="cycle"):
            compile_graph(graph, compiler=tiny_compiler)


# --------------------------------------------------------------------- #
# ModelServer
# --------------------------------------------------------------------- #
class TestModelServer:
    @pytest.fixture()
    def model_server(self, h100, tmp_path):
        with ModelServer(
            device=h100,
            top_k=3,
            max_tile=128,
            cache=PlanCache(directory=tmp_path),
            m_bins=(64, 128),
        ) as server:
            yield server

    def test_serve_registered_factory(self, model_server):
        model_server.register(
            "tiny",
            lambda m: build_transformer_layer(
                "tiny.layer", m=m, hidden=128, intermediate=256
            ),
        )
        first = model_server.serve("tiny", m=64)
        assert first.source == "compiled"
        assert first.time_us > 0
        assert first.speedup_vs_unfused > 1.0
        second = model_server.serve("tiny", m=64)
        assert second.source == "table"
        assert second.time_us == pytest.approx(first.time_us)
        # A kernel-table hit is not a plan-cache hit: provenance keeps the
        # two tiers distinct.
        assert second.plan.fused_segments[0].source == "table"
        assert second.plan.cache_hits == 0
        assert model_server.stats.hit_rate() == pytest.approx(0.5)
        snapshot = model_server.snapshot()
        assert snapshot["models"]["by_workload"]["tiny"] == 2
        assert snapshot["kernels"]["serving"]["requests"] == 2

    def test_serve_bins_runtime_m(self, model_server):
        model_server.register(
            "binned",
            lambda m: build_transformer_layer(
                "binned.layer", m=m, hidden=128, intermediate=256
            ),
        )
        model_server.serve("binned", m=128)
        # m=100 quantises to the 128 bin: the fused chain is a table hit
        # even though this exact graph was never compiled.
        response = model_server.serve("binned", m=100)
        assert response.source == "table"
        assert response.m == 100

    def test_m_above_largest_bin_charges_waves(self, model_server):
        model_server.register(
            "waves",
            lambda m: build_transformer_layer(
                "waves.layer", m=m, hidden=128, intermediate=256
            ),
        )
        # m=512 with bins (64, 128): the 128-bin kernel runs 4 waves, and
        # the plan must charge all of them against the m=512 baseline.
        response = model_server.serve("waves", m=512)
        fused = response.plan.fused_segments[0]
        assert fused.time_us == pytest.approx(fused.kernel.time_us * 4)
        within_bin = model_server.serve("waves", m=128)
        within_fused = within_bin.plan.fused_segments[0]
        assert within_fused.time_us == pytest.approx(within_fused.kernel.time_us)

    def test_extraction_memo_is_bounded(self, model_server):
        from repro.graphs.server import _EXTRACTION_MEMO_CAPACITY

        model_server.register(
            "dyn",
            lambda m: build_transformer_layer(
                "dyn.layer", m=m, hidden=128, intermediate=256
            ),
        )
        model_server.serve("dyn", m=64)
        for m in range(65, 65 + _EXTRACTION_MEMO_CAPACITY + 8):
            model_server.serve("dyn", m=m)
        assert len(model_server._extractions) <= _EXTRACTION_MEMO_CAPACITY

    def test_static_graph_registration(self, model_server):
        graph, _ = _tiny_graph("static")
        model_server.register("static", graph)
        response = model_server.serve("static")
        assert response.m == TINY["m"]
        with pytest.raises(ValueError, match="factory"):
            model_server.serve("static", m=32)

    def test_register_validates_graphs(self, model_server):
        graph = _two_cycle_graph("badmodel")
        with pytest.raises(FusionError, match="cycle"):
            model_server.register("badmodel", graph)

    def test_concurrent_serves_are_safe(self, model_server):
        from concurrent.futures import ThreadPoolExecutor

        model_server.register(
            "conc",
            lambda m: build_transformer_layer(
                "conc.layer", m=m, hidden=128, intermediate=256
            ),
        )
        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(
                pool.map(lambda m: model_server.serve("conc", m=m), [64, 64, 100, 128] * 2)
            )
        assert all(response.time_us > 0 for response in responses)
        assert model_server.stats.requests == 8

    def test_unknown_model_raises(self, model_server):
        with pytest.raises(KeyError):
            model_server.serve("nope", m=64)

    def test_zoo_name_registration(self, model_server):
        model_server.register("bert", "BERT")
        response = model_server.serve("bert", m=64)
        assert response.plan.summary()["fused_chains"] == 1


# --------------------------------------------------------------------- #
# Memoised plans: a memo hit reuses the extraction's pricing
# --------------------------------------------------------------------- #
#: Serve sizes for the differential tests; 300 exceeds the largest bin, so
#: the fused segment is charged as several kernel waves.
MEMO_SIZES = (1, 8, 64, 100, 256, 300)


def _zoo_sizes(config):
    """Every M in 1..300 (a model's first serve, at 1, builds its template),
    then the model's own widths, which a bound M must not be confused with,
    and one M above the largest bin."""
    own = (config.hidden, config.intermediate, config.num_heads)
    return tuple(range(1, 301)) + own + (1000,)


def _segment_fields(plan):
    return [
        (
            segment.name,
            segment.kind,
            segment.anchor,
            segment.source,
            segment.cache_hit,
            segment.time_us,
            segment.unfused_time_us,
        )
        for segment in plan.segments
    ]


def _assert_matches_fresh_assembly(server, graph, served):
    """``served`` equals a fresh extraction and assembly of ``graph`` whose
    chains resolve to the kernels the served plan used."""
    by_chain = {s.name: s for s in served.plan.segments if s.chain is not None}

    def resolve(match):
        segment = by_chain[match.chain.name]
        if not segment.fused:
            raise FusionError(f"{match.chain.name} is unfusable")
        return segment.kernel, segment.source, segment.cache_hit, segment.time_us

    fresh = assemble_plan(
        graph.name, extract_chains(graph, rewrite=True), resolve, server.simulator
    )
    assert served.plan.graph_name == fresh.graph_name
    assert [repr(s) for s in served.plan.segments] == [repr(s) for s in fresh.segments]
    assert _segment_fields(served.plan) == _segment_fields(fresh)
    assert served.plan.extraction.matches == fresh.extraction.matches
    assert served.plan.extraction.residual == fresh.extraction.residual
    assert (
        served.plan.extraction.topological_names
        == fresh.extraction.topological_names
    )
    assert served.plan.extraction.rewrite == fresh.extraction.rewrite
    assert served.plan.time_us == fresh.time_us
    assert served.plan.unfused_time_us == fresh.unfused_time_us


class _Spy:
    """Counts the calls of one patched callable."""

    def __init__(self, monkeypatch, owner, name, wrap=lambda f: f):
        original = getattr(owner, name)
        self.calls = 0

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counted))


def _json_chain_key(chain):
    identity = {k: v for k, v in chain.canonical_dict().items() if k != "m"}
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return "chain:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _zoo_chains():
    chains = [get_chain_spec(workload) for workload in list_workloads()]
    for name in MODEL_ZOO:
        for m in (8, 300):
            layer = get_model(name).layer_graph(seq_len=m)
            chains += [match.chain for match in extract_chains(layer).matches]
    for factory in GRAPH_ZOO.values():
        graph = factory(128)
        chains += [
            match.chain for match in extract_chains(graph, rewrite=True).matches
        ]
    return chains


class TestMemoizedPlans:
    @pytest.fixture(scope="class")
    def memo_server(self, h100):
        with ModelServer(device=h100, top_k=1, max_tile=64, m_bins=(64, 256)) as server:
            yield server

    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_zoo_memo_hit_equals_fresh_assembly(self, memo_server, model):
        # Every first serve but the one at M=1 binds M into the template;
        # each is checked against a fresh build, extraction and assembly.
        memo_server.register(model, model)
        for m in _zoo_sizes(get_model(model)):
            first = memo_server.serve(model, m=m)
            again = memo_server.serve(model, m=m)
            graph = get_model(model).layer_graph(seq_len=m)
            _assert_matches_fresh_assembly(memo_server, graph, first)
            if m in MEMO_SIZES:
                _assert_matches_fresh_assembly(memo_server, graph, again)
            assert again.source == "table"
        over = memo_server.serve(model, m=300).plan.fused_segments[0]
        assert over.time_us == over.kernel.time_us * 2

    @pytest.mark.parametrize("entry", sorted(GRAPH_ZOO))
    def test_graph_zoo_factory_memo_hit_equals_fresh_assembly(
        self, memo_server, entry
    ):
        factory = GRAPH_ZOO[entry]
        memo_server.register(f"zoo.{entry}", factory)
        for m in (64, 128, 300):
            memo_server.serve(f"zoo.{entry}", m=m)
            again = memo_server.serve(f"zoo.{entry}", m=m)
            _assert_matches_fresh_assembly(memo_server, factory(m), again)

    def test_fixed_graph_memo_hit_equals_fresh_assembly(self, memo_server):
        graph, _ = _tiny_graph("memo-fixed")
        memo_server.register("memo-fixed", graph)
        memo_server.serve("memo-fixed")
        again = memo_server.serve("memo-fixed")
        _assert_matches_fresh_assembly(memo_server, graph, again)

    def test_reregister_does_not_reuse_old_pricing(self, memo_server):
        def layer(intermediate):
            return lambda m: build_transformer_layer(
                "memo.re", m=m, hidden=128, intermediate=intermediate
            )

        memo_server.register("memo-re", layer(256))
        old = memo_server.serve("memo-re", m=64)
        memo_server.register("memo-re", layer(512))
        new = memo_server.serve("memo-re", m=64)
        _assert_matches_fresh_assembly(memo_server, layer(512)(64), new)
        assert new.plan.unfused_time_us != old.plan.unfused_time_us

        # A config is served from a template, which re-registering drops
        # with the memo: both the memoised M and a bound one are the new
        # config's.
        small = ModelConfig("memo-cfg", 1, 128, 256, 2)
        large = dataclasses.replace(small, intermediate=512)
        memo_server.register("memo-cfg", small)
        old = [memo_server.serve("memo-cfg", m=m) for m in (64, 100)]
        memo_server.register("memo-cfg", large)
        for m, before in zip((64, 100), old):
            new = memo_server.serve("memo-cfg", m=m)
            _assert_matches_fresh_assembly(
                memo_server, large.layer_graph(seq_len=m), new
            )
            assert new.plan.unfused_time_us != before.plan.unfused_time_us

    @pytest.mark.parametrize(
        "builder",
        [
            # A width that grows at twice M's rate.
            lambda m: build_transformer_layer(
                "poly", m=m, hidden=2 * m, intermediate=64
            ),
            # A width that changes with M's parity.
            lambda m: build_transformer_layer(
                "poly", m=m, hidden=64 * (1 + m % 2), intermediate=64
            ),
            # Operator names that change with M.
            lambda m: build_transformer_layer(
                f"poly{m}", m=m, hidden=64, intermediate=64
            ),
            # A different partition at the probe.
            lambda m: build_transformer_layer("poly", m=m, hidden=64, intermediate=64)
            if m == 64
            else build_standard_ffn("poly", m=m, n=64, k=64, l=64)[0],
        ],
    )
    def test_template_rejects_a_builder_that_is_not_row_polymorphic(self, builder):
        from repro.graphs.server import _RowTemplate

        first = extract_chains(builder(64), rewrite=True)
        probe = extract_chains(builder(65), rewrite=True)
        with pytest.raises(FusionError, match="not row-polymorphic"):
            _RowTemplate.derive(first, 64, probe, 65)

    def test_memo_hit_shares_frozen_residual_segments(self, memo_server):
        memo_server.register("memo-frozen", "BERT")
        first = memo_server.serve("memo-frozen", m=8)
        again = memo_server.serve("memo-frozen", m=8)
        residual = [s for s in again.plan.segments if s.source == SOURCE_SIMULATED]
        assert residual
        assert all(
            a is b
            for a, b in zip(
                residual,
                [s for s in first.plan.segments if s.source == SOURCE_SIMULATED],
            )
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            residual[0].time_us = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            again.plan.fused_segments[0].source = "search"


class TestWarmServeCounters:
    @pytest.fixture()
    def server(self, h100):
        with ModelServer(device=h100, top_k=1, max_tile=64, m_bins=(64, 256)) as server:
            for model in ("BERT", "LLaMA-1B"):
                server.register(model, model)
            server.register("moe", GRAPH_ZOO["moe_layer"])
            yield server

    @pytest.mark.parametrize("model", ["BERT", "LLaMA-1B", "moe"])
    def test_memo_hit_prices_nothing_and_hashes_nothing(
        self, server, monkeypatch, model
    ):
        server.serve(model, m=64)
        simulate = _Spy(monkeypatch, PerformanceSimulator, "simulate_kernels")
        chain_key = _Spy(monkeypatch, KernelServer, "_chain_key", staticmethod)
        sha256 = _Spy(monkeypatch, hashlib, "sha256")
        response = server.serve(model, m=64)
        assert response.source == "table"
        assert simulate.calls == 0
        assert chain_key.calls == 0
        assert sha256.calls == 0

    @pytest.mark.parametrize("model", ["BERT", "LLaMA-1B", "moe"])
    def test_memo_miss_prices_each_match_and_residual_once(
        self, server, monkeypatch, model
    ):
        server.serve(model, m=64)
        simulate = _Spy(monkeypatch, PerformanceSimulator, "simulate_kernels")
        chain_key = _Spy(monkeypatch, KernelServer, "_chain_key", staticmethod)
        response = server.serve(model, m=63)
        extraction = response.plan.extraction
        assert simulate.calls == extraction.num_chains + len(extraction.residual)
        # Same chain shapes as the m=64 serve: their table keys are known.
        assert chain_key.calls == 0

    @pytest.mark.parametrize("model", ["BERT", "LLaMA-1B"])
    def test_zoo_memo_miss_builds_and_extracts_nothing(
        self, server, monkeypatch, model
    ):
        import repro.graphs.extract
        import repro.graphs.server

        server.serve(model, m=64)
        canonicalize_spy = _Spy(monkeypatch, repro.graphs.extract, "canonicalize")
        extract = _Spy(monkeypatch, repro.graphs.server, "extract_chains")
        layer_graph = _Spy(monkeypatch, ModelConfig, "layer_graph")
        for m in (63, 65, 256, 300):
            response = server.serve(model, m=m)
            assert response.plan.extraction.matches[0].chain.m == m
        assert canonicalize_spy.calls == 0
        assert extract.calls == 0
        assert layer_graph.calls == 0

    def test_first_zoo_serve_builds_the_template_from_two_extractions(
        self, server, monkeypatch
    ):
        import repro.graphs.server

        extract = _Spy(monkeypatch, repro.graphs.server, "extract_chains")
        layer_graph = _Spy(monkeypatch, ModelConfig, "layer_graph")
        server.register("opt", "OPT-1.3B")
        server.serve("opt", m=64)
        server.serve("opt", m=256)
        assert (extract.calls, layer_graph.calls) == (2, 2)
        server.register("opt", "OPT-1.3B")
        server.serve("opt", m=256)
        assert (extract.calls, layer_graph.calls) == (4, 4)

    def test_factory_memo_miss_still_extracts_per_m(self, server, monkeypatch):
        import repro.graphs.server

        factory = GRAPH_ZOO["residual_block"]
        server.register("block", factory)
        extract = _Spy(monkeypatch, repro.graphs.server, "extract_chains")
        sizes = (1, 63, 64, 65, 127, 128, 256)
        for m in sizes:
            response = server.serve("block", m=m)
            _assert_matches_fresh_assembly(server, factory(m), response)
        assert extract.calls == len(sizes)

    def test_new_shape_hashes_once(self, server, monkeypatch):
        chain_key = _Spy(monkeypatch, KernelServer, "_chain_key", staticmethod)
        server.register("opt", "OPT-1.3B")
        server.serve("opt", m=64)
        server.serve("opt", m=8)
        server.serve("opt", m=64)
        assert chain_key.calls == 1

    def test_every_zoo_chain_key_equals_its_json_hash(self, h100):
        server = KernelServer(device=h100, top_k=1, max_tile=64)
        try:
            chains = _zoo_chains()
            for chain in chains + chains:
                key, base, _, _ = server._parse_request(
                    CompileRequest(chain=chain), None
                )
                assert key == _json_chain_key(chain)
                assert base.same_shape(chain.scaled(m=base.m))
            distinct = {_json_chain_key(chain) for chain in chains}
            assert len(server._chain_keys) == len(distinct)
        finally:
            server.close()

    def test_chain_key_separates_every_identity_field_but_m(self, h100):
        from repro.ir.tensor import DType

        base = GemmChainSpec("key-base", m=64, n=256, k=128, l=128)
        variants = [
            base,
            dataclasses.replace(base, n=512),
            dataclasses.replace(base, k=256),
            dataclasses.replace(base, l=256),
            dataclasses.replace(base, kind=ChainKind.GATED_FFN),
            dataclasses.replace(base, activation=ActivationKind.GELU),
            dataclasses.replace(base, dtype=DType.BF16),
        ]
        assert set(base.canonical_dict()) - {"m"} == {
            "n", "k", "l", "kind", "activation", "dtype"
        }
        server = KernelServer(device=h100, top_k=1, max_tile=64)
        try:
            keys = [
                server._parse_request(CompileRequest(chain=chain), None)[0]
                for chain in variants + [base.scaled(m=8, name="key-other")]
            ]
        finally:
            server.close()
        assert keys == [_json_chain_key(chain) for chain in variants] + [keys[0]]
        assert len(set(keys)) == len(variants)

    def test_concurrent_first_requests_agree_on_chain_keys(self, h100):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        chains = _zoo_chains()
        server = KernelServer(device=h100, top_k=1, max_tile=64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                keys = list(
                    pool.map(
                        lambda chain: server._parse_request(
                            CompileRequest(chain=chain), None
                        )[0],
                        chains * 8,
                        timeout=60,
                    )
                )
        finally:
            sys.setswitchinterval(interval)
            server.close()
        assert keys == [_json_chain_key(chain) for chain in chains * 8]
        assert len(server._chain_keys) == len(set(keys))
        assert set(server._chains) == set(keys)


# --------------------------------------------------------------------- #
# End-to-end reroute (fig16/fig17 path)
# --------------------------------------------------------------------- #
class TestEndToEndReroute:
    def test_inference_model_routes_ffn_through_graph_compiler(self):
        from repro.models.inference import E2EConfig, InferenceLatencyModel

        latency = InferenceLatencyModel()
        result = latency.evaluate(E2EConfig(model_name="BERT", seq_len=64))
        assert result.ffn_plan is not None
        assert result.fused_chains == 1
        assert result.ffn_plan.extraction.graph_name == "BERT.ffn"
        assert result.e2e_speedup > 1.0
        # The memo reuses the plan object for a repeated evaluation point.
        again = latency.evaluate(E2EConfig(model_name="BERT", seq_len=64))
        assert again.ffn_plan is result.ffn_plan

    def test_timing_model_ffn_plan(self):
        from repro.models.transformer import TransformerTimingModel

        with TransformerTimingModel(get_model("BERT")) as timing:
            plan = timing.ffn_plan(seq_len=64)
            assert len(plan.fused_segments) == 1
            assert plan.time_us > 0
            breakdown = timing.layer_breakdown(seq_len=64, ffn_time_us=plan.time_us)
            assert breakdown.ffn_us == pytest.approx(plan.time_us)

    def test_latency_model_closes_owned_compiler(self, monkeypatch):
        from repro.models.inference import InferenceLatencyModel

        closed = {"count": 0}
        original = FlashFuser.close

        def counting(self):
            closed["count"] += 1
            original(self)

        monkeypatch.setattr(FlashFuser, "close", counting)
        with InferenceLatencyModel():
            pass
        assert closed["count"] == 1
        # A caller-provided compiler is left open.
        with FlashFuser(top_k=3, max_tile=128) as external:
            with InferenceLatencyModel(compiler=external):
                pass
        before_exit = closed["count"]
        assert before_exit == 2  # only the explicit context-manager close


# --------------------------------------------------------------------- #
# ChainMatch surface
# --------------------------------------------------------------------- #
class TestChainMatchSurface:
    def test_match_is_frozen_and_typed(self):
        graph, _ = _tiny_graph("surface")
        match = extract_chains(graph).matches[0]
        assert isinstance(match, ChainMatch)
        assert isinstance(match.chain, GemmChainSpec)
        with pytest.raises(AttributeError):
            match.anchor = 7
