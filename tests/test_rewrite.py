"""Tests for the graph rewrite layer (canonicalize-then-extract).

Three groups:

* per-rule unit tests over the opening catalog (each rule's match, guard
  and substitution, exercised on the smallest graph that triggers it);
* driver contract tests (determinism, idempotence, fixpoint bound,
  reachability pre-pruning, provenance threading through extraction,
  plans and serving);
* differential oracle tests pinning plan-neutrality: when no rule fires,
  rewrite on vs off is bit-identical down to the plan-cache keys, and when
  rules only eliminate identity operators the compiled segment costs equal
  those of the hand-canonical graph.

The named ``TestFuzzerRegressions`` cases are minimized counterexamples the
property fuzzer (``tests/test_rewrite_properties.py``) surfaced while the
rule set was being developed — committed as deterministic tests so the
exact shapes stay covered without the fuzzer in the loop.
"""

from __future__ import annotations

import pytest

from repro.api import FlashFuser, FusionError
from repro.config import FuserConfig
from repro.graphs import ModelServer, compile_graph, extract_chains
from repro.graphs.rewrite import (
    DEFAULT_RULES,
    GraphEdit,
    canonicalize,
    graph_signature,
)
from repro.ir.builders import (
    build_conv_chain,
    build_gated_ffn,
    build_moe_layer,
    build_multibranch_residual_block,
    build_standard_ffn,
    build_transformer_layer,
)
from repro.ir.graph import ChainKind, OperatorGraph
from repro.ir.ops import (
    Activation,
    ActivationKind,
    Conv2d,
    Elementwise,
    Gemm,
    Reshape,
    Transpose,
)
from repro.ir.tensor import TensorSpec
from repro.ir.workloads import get_model, get_zoo_graph, list_graph_zoo
from repro.runtime import PlanCache
from repro.runtime.cache import plan_cache_key

TINY = dict(m=64, n=256, k=128, l=128)


def _names(graph: OperatorGraph):
    return [op.name for op in graph.operators]


# --------------------------------------------------------------------- #
# Rule unit tests
# --------------------------------------------------------------------- #
class TestEliminationRules:
    def test_dead_reshape_and_transpose_are_dropped(self):
        graph, _ = build_standard_ffn("dead", **TINY)
        graph.add(Reshape("dead.flat", TensorSpec("dead.A", (64, 128)), (8192,)))
        graph.add(Transpose("dead.t", TensorSpec("dead.A", (64, 128))))
        result = canonicalize(graph)
        assert result.changed
        assert sorted(result.provenance.rules_fired) == [
            "eliminate-dead-movement-op",
            "eliminate-dead-movement-op",
        ]
        assert _names(result.graph) == ["dead.gemm0", "dead.act", "dead.gemm1"]

    def test_dead_identity_activation_is_dropped(self):
        graph, _ = build_standard_ffn("deadid", **TINY)
        tail = graph.producer_of("deadid.gemm1.out")
        graph.add(Activation("deadid.noop", ActivationKind.IDENTITY, tail.output))
        result = canonicalize(graph)
        assert result.provenance.rules_fired == ("eliminate-dead-movement-op",)
        assert "deadid.noop" not in _names(result.graph)

    def test_dead_nonidentity_activation_is_kept(self):
        # A ReLU with no consumers is a graph output, not debris.
        graph, _ = build_standard_ffn("out", **TINY)
        tail = graph.producer_of("out.gemm1.out")
        graph.add(Activation("out.final", ActivationKind.RELU, tail.output))
        assert not canonicalize(graph).changed

    def test_interior_identity_is_eliminated_and_rewired(self):
        # x -> identity -> gemm: not chain position (producer is an input).
        x = TensorSpec("g.x", (16, 8))
        w = TensorSpec("g.w", (8, 4))
        graph = OperatorGraph("g")
        noop = graph.add(Activation("g.noop", ActivationKind.IDENTITY, x))
        graph.add(Gemm("g.mm", lhs=noop.output.with_shape((16, 8)), rhs=w))
        result = canonicalize(graph)
        assert result.provenance.rules_fired == ("eliminate-identity-activation",)
        (gemm,) = result.graph.operators
        assert gemm.lhs.name == "g.x"

    def test_identity_in_chain_position_is_kept(self):
        # gemm -> identity -> gemm is the canonical activation-free chain
        # spelling; eliminating the link would oscillate with insertion.
        graph, _ = build_standard_ffn("keep", **TINY)
        graph = OperatorGraph(
            "keep",
            [
                op
                if not isinstance(op, Activation)
                else Activation(op.name, ActivationKind.IDENTITY, op.input_spec)
                for op in graph.operators
            ],
        )
        assert not canonicalize(graph).changed
        assert extract_chains(graph).num_chains == 1

    def test_interior_reshape_is_eliminated(self):
        graph = build_multibranch_residual_block(
            "res", batch=2, channels=16, height=4, width=4, mid_channels=8
        )
        result = canonicalize(graph)
        assert result.provenance.rules_fired == ("eliminate-reshape",)
        assert "res.flatten" not in _names(result.graph)
        conv2 = result.graph.producer_of("res.conv2.out")
        assert conv2.input_spec.name == "res.act.out"


class TestTransposeRules:
    def test_double_transpose_cancels_and_inner_goes_dead(self):
        # The pair transposes a *produced* tensor (folding does not apply):
        # cancellation rewires around it, the dead-movement sweep collects
        # the stranded inner transpose, and the now-adjacent GEMM pair gets
        # its chain link — three rules composing across passes.
        a = TensorSpec("t.A", (8, 4))
        b = TensorSpec("t.B", (4, 8))
        w = TensorSpec("t.w", (8, 2))
        graph = OperatorGraph("t")
        mm0 = graph.add(Gemm("t.mm0", lhs=a, rhs=b))
        t0 = graph.add(Transpose("t.t0", mm0.output))
        t1 = graph.add(Transpose("t.t1", t0.output))
        graph.add(Gemm("t.mm1", lhs=t1.output, rhs=w))
        result = canonicalize(graph)
        assert result.provenance.rules_fired == (
            "cancel-double-transpose",
            "eliminate-dead-movement-op",
            "insert-chain-activation",
        )
        mm1 = result.graph.producer_of("t.mm1.out")
        assert mm1.lhs.name == "t.mm0.link.out"
        assert extract_chains(result.graph).num_chains == 1

    def test_input_double_transpose_folds_instead(self):
        # Both transposes sit on a graph input, so folding (which comes
        # later in the catalog but earlier in operator scan order) resolves
        # the pair one transpose at a time.
        x = TensorSpec("t2.x", (8, 4))
        w = TensorSpec("t2.w", (4, 2))
        graph = OperatorGraph("t2")
        t0 = graph.add(Transpose("t2.t0", x))
        t1 = graph.add(Transpose("t2.t1", t0.output))
        graph.add(Gemm("t2.mm", lhs=t1.output, rhs=w))
        result = canonicalize(graph)
        assert result.provenance.fired_counts() == {"fold-input-transpose": 2}
        (gemm,) = result.graph.operators
        assert gemm.lhs.shape == (8, 4)

    def test_input_transpose_folds_to_synthetic_weight(self):
        x = TensorSpec("f.x", (8, 4))
        w_t = TensorSpec("f.Wt", (2, 4))  # stored transposed
        graph = OperatorGraph("f")
        t = graph.add(Transpose("f.T", w_t))
        graph.add(Gemm("f.mm", lhs=x, rhs=t.output))
        result = canonicalize(graph)
        assert result.provenance.rules_fired == ("fold-input-transpose",)
        (gemm,) = result.graph.operators
        assert gemm.rhs.name == "f.T.folded"
        assert gemm.rhs.shape == (4, 2)
        assert result.graph.producer_of("f.T.folded") is None

    def test_fold_records_new_input_on_declared_graphs(self):
        x = TensorSpec("d.x", (8, 4))
        w_t = TensorSpec("d.Wt", (2, 4))
        graph = OperatorGraph("d", inputs=[x, w_t])
        t = graph.add(Transpose("d.T", w_t))
        graph.add(Gemm("d.mm", lhs=x, rhs=t.output))
        result = canonicalize(graph)
        declared = {spec.name for spec in result.graph.declared_inputs}
        assert "d.T.folded" in declared
        assert result.graph.validate() is result.graph

    def test_interior_transpose_is_left_alone(self):
        # transpose of a *produced* tensor that is not a double transpose:
        # no rule claims it (folding it would change real data movement).
        x = TensorSpec("i.x", (8, 8))
        w = TensorSpec("i.w", (8, 8))
        graph = OperatorGraph("i")
        mm = graph.add(Gemm("i.mm", lhs=x, rhs=w))
        t = graph.add(Transpose("i.T", mm.output))
        graph.add(Gemm("i.mm2", lhs=t.output, rhs=w))
        assert not canonicalize(graph).changed


class TestCanonicalizationRules:
    def test_mirrored_gating_operands_are_swapped(self):
        graph = build_moe_layer("moe", m=16, hidden=8, intermediate=16, experts=1)
        result = canonicalize(graph)
        assert result.provenance.fired_counts() == {
            "eliminate-reshape": 1,
            "order-commutative-operands": 1,
        }
        mul = result.graph.producer_of("moe.e0.mul.out")
        assert isinstance(result.graph.producer_of(mul.lhs.name), Activation)

    def test_canonical_operand_order_is_stable(self):
        graph, _ = build_gated_ffn("gated", **TINY)
        assert not canonicalize(graph).changed

    def test_missing_activation_gets_identity_link(self):
        a = TensorSpec("bare.A", (16, 8))
        b = TensorSpec("bare.B", (8, 4))
        d = TensorSpec("bare.D", (4, 4))
        graph = OperatorGraph("bare")
        g0 = graph.add(Gemm("bare.g0", lhs=a, rhs=b))
        graph.add(Gemm("bare.g1", lhs=g0.output, rhs=d))
        result = canonicalize(graph)
        assert result.provenance.rules_fired == ("insert-chain-activation",)
        link = result.graph.producer_of("bare.g0.link.out")
        assert isinstance(link, Activation)
        assert link.kind is ActivationKind.IDENTITY
        extraction = extract_chains(result.graph)
        assert extraction.num_chains == 1
        assert extraction.matches[0].kind is ChainKind.STANDARD_FFN

    def test_conv_pair_without_activation_gets_link(self):
        graph, _ = build_conv_chain(
            "cc",
            batch=1,
            in_channels=8,
            height=4,
            width=4,
            out_channels1=16,
            out_channels2=8,
            kernel1=1,
            kernel2=1,
        )
        conv1 = graph.producer_of("cc.conv1.out")
        conv2 = graph.producer_of("cc.conv2.out")
        # The same pair with its ReLU constant-folded away by an exporter.
        bare = OperatorGraph(
            "cc", [conv1, Conv2d(conv2.name, conv1.output, conv2.weight)]
        )
        result = canonicalize(bare)
        assert result.provenance.rules_fired == ("insert-chain-activation",)
        assert extract_chains(result.graph).num_chains == 1


# --------------------------------------------------------------------- #
# Driver contract
# --------------------------------------------------------------------- #
class _AlwaysSwap:
    """A deliberately diverging rule: swaps elementwise operands forever."""

    name = "always-swap"
    anchors = frozenset({Elementwise})

    def match(self, graph, op):
        swapped = Elementwise(op.name, op.kind, lhs=op.rhs, rhs=op.lhs)
        return GraphEdit(drop=(op.name,), insert_after=((op.name, swapped),))


class TestDriver:
    def test_oscillating_rule_set_trips_fixpoint_bound(self):
        graph, _ = build_gated_ffn("osc", **TINY)
        with pytest.raises(FusionError, match="fixpoint"):
            canonicalize(graph, rules=[_AlwaysSwap()], max_firings=5)

    def test_rule_firing_order_is_deterministic(self):
        first = canonicalize(get_zoo_graph("moe_layer", m=32))
        second = canonicalize(get_zoo_graph("moe_layer", m=32))
        assert first.provenance.rules_fired == second.provenance.rules_fired
        assert graph_signature(first.graph) == graph_signature(second.graph)

    @pytest.mark.parametrize("entry", list_graph_zoo())
    def test_canonicalize_is_idempotent_on_zoo(self, entry):
        once = canonicalize(get_zoo_graph(entry, m=32))
        twice = canonicalize(once.graph)
        assert not twice.changed
        assert graph_signature(twice.graph) == graph_signature(once.graph)

    def test_pre_pruning_skips_absent_anchor_types(self):
        graph, _ = build_standard_ffn("plain", **TINY)
        provenance = canonicalize(graph).provenance
        assert provenance.rules_fired == ()
        # Reshape/Transpose-anchored rules prune on a movement-op-free graph.
        assert provenance.rules_pruned > 0

    def test_invalid_graph_is_rejected_before_rewriting(self):
        graph = OperatorGraph("cyclic")
        graph.add(
            Gemm("a", lhs=TensorSpec("b.out", (4, 4)), rhs=TensorSpec("w", (4, 4)))
        )
        graph.add(
            Gemm("b", lhs=TensorSpec("a.out", (4, 4)), rhs=TensorSpec("v", (4, 4)))
        )
        with pytest.raises(FusionError, match="cycle"):
            canonicalize(graph)

    def test_provenance_payload_shape_is_pinned(self):
        provenance = canonicalize(get_zoo_graph("residual_block", m=64)).provenance
        payload = provenance.to_dict()
        assert list(payload) == [
            "graph",
            "passes",
            "rules_fired",
            "fired_counts",
            "ops_before",
            "ops_after",
            "ops_eliminated",
            "rules_pruned",
        ]
        assert payload["ops_eliminated"] == 1
        assert payload["ops_before"] - payload["ops_eliminated"] == payload["ops_after"]

    def test_default_catalog_order_is_pinned(self):
        assert [rule.name for rule in DEFAULT_RULES] == [
            "eliminate-dead-movement-op",
            "eliminate-identity-activation",
            "eliminate-reshape",
            "cancel-double-transpose",
            "fold-input-transpose",
            "order-commutative-operands",
            "insert-chain-activation",
        ]


# --------------------------------------------------------------------- #
# Wiring: extraction, plans, serving, config, metrics
# --------------------------------------------------------------------- #
class TestWiring:
    def test_extract_chains_is_rewrite_off_by_default(self):
        graph = get_zoo_graph("attention_ffn", m=32)
        assert extract_chains(graph).num_chains == 0
        assert extract_chains(graph).rewrite is None
        assert extract_chains(graph, rewrite=True).num_chains == 1

    def test_rewrite_flag_is_plan_neutral(self, h100):
        # Rewriting changes which chains are extracted, never a chain's
        # plan-cache identity: the chain extracted through the rewrite
        # stage keys like the directly built one.
        graph, spec = build_standard_ffn("neutral", **TINY)
        search = FuserConfig().cache_key_fields()
        keys = {
            plan_cache_key(match.chain, h100, search)
            for rewrite in (False, True)
            for match in extract_chains(graph, rewrite=rewrite).matches
        }
        assert keys == {plan_cache_key(spec, h100, search)}

    def test_plan_summary_carries_rewrite_provenance(self, h100):
        graph = get_zoo_graph("moe_layer", m=32)
        with FlashFuser(device=h100, top_k=3, max_tile=128) as compiler:
            plan = compile_graph(graph, compiler=compiler)
        summary = plan.summary()
        assert summary["rewrite"]["fired_counts"] == {
            "eliminate-reshape": 2,
            "order-commutative-operands": 2,
        }
        assert len(plan.fused_segments) == 2

    def test_model_server_exposes_rewrite_provenance(self, h100):
        with ModelServer(device=h100, top_k=3, max_tile=128) as server:
            server.register("moe", lambda m: get_zoo_graph("moe_layer", m=m))
            response = server.serve("moe", m=32)
        assert response.rewrite_provenance is not None
        assert response.rewrite_provenance.rules_fired != ()


# --------------------------------------------------------------------- #
# Differential oracles: plan-neutrality, pinned bit-identically
# --------------------------------------------------------------------- #
class TestDifferentialOracle:
    @pytest.mark.parametrize("model", ["BERT", "LLaMA-1B"])
    def test_zoo_models_extract_identically_with_rewrite_on(self, model):
        # Canonical graphs fire no rule, so rewrite on vs off must agree
        # down to the plan-cache identity of every extracted chain.
        graph = get_model(model).layer_graph(seq_len=64)
        off = extract_chains(graph)
        on = extract_chains(graph, rewrite=True)
        assert on.rewrite.rules_fired == ()
        assert [m.operator_names for m in on.matches] == [
            m.operator_names for m in off.matches
        ]
        assert [m.chain.canonical_hash() for m in on.matches] == [
            m.chain.canonical_hash() for m in off.matches
        ]

    def test_hand_canonical_graphs_fire_no_rules(self):
        graphs = [
            build_standard_ffn("h1", **TINY)[0],
            build_gated_ffn("h2", **TINY)[0],
            build_conv_chain(
                "h3",
                batch=1,
                in_channels=8,
                height=4,
                width=4,
                out_channels1=16,
                out_channels2=8,
                kernel1=1,
                kernel2=1,
            )[0],
            build_transformer_layer("h4", m=32, hidden=64, intermediate=128),
        ]
        for graph in graphs:
            result = canonicalize(graph)
            assert not result.changed, graph.name
            assert graph_signature(result.graph) == graph_signature(graph)

    def test_rewrite_on_reuses_rewrite_off_cache_entries(self, h100, tmp_path):
        # The strongest key oracle: plans compiled from the chains of a
        # rewrite-off extraction must be cache hits for the graph compiler,
        # which extracts through the rewrite stage, over the same store.
        graph, _ = build_standard_ffn("oracle", **TINY)
        cache = PlanCache(directory=tmp_path / "plans")
        with FlashFuser(device=h100, top_k=3, max_tile=128, cache=cache) as compiler:
            cold = [
                compiler.compile(match.chain) for match in extract_chains(graph).matches
            ]
        assert [kernel.from_cache for kernel in cold] == [False]
        with FlashFuser(device=h100, top_k=3, max_tile=128, cache=cache) as compiler:
            warm = compile_graph(graph, compiler=compiler)
        assert warm.cache_hits == len(warm.fused_segments) == 1
        assert warm.fused_segments[0].time_us == cold[0].time_us

    def test_identity_only_elimination_keeps_segment_costs(self, h100):
        # A graph whose only rewrites eliminate identity/dead movement ops
        # must compile to the same segment costs as the clean spelling.
        clean, _ = build_standard_ffn("samecost", **TINY)
        noisy, _ = build_standard_ffn("samecost", **TINY)
        tail = noisy.producer_of("samecost.gemm1.out")
        noisy.add(
            Activation("samecost.noop", ActivationKind.IDENTITY, tail.output)
        )
        with FlashFuser(device=h100, top_k=3, max_tile=128) as compiler:
            clean_plan = compile_graph(clean, compiler=compiler)
            noisy_plan = compile_graph(noisy, compiler=compiler)
        assert noisy_plan.extraction.rewrite.fired_counts() == {
            "eliminate-dead-movement-op": 1
        }
        assert [
            (segment.kind, segment.time_us, segment.unfused_time_us)
            for segment in noisy_plan.segments
        ] == [
            (segment.kind, segment.time_us, segment.unfused_time_us)
            for segment in clean_plan.segments
        ]


# --------------------------------------------------------------------- #
# Fuzzer-minimized regressions (committed as deterministic tests)
# --------------------------------------------------------------------- #
class TestFuzzerRegressions:
    def test_shared_intermediate_blocks_match_both_ways(self):
        # The activation output feeds two GEMMs: the region intermediate is
        # not private, so neither raw nor rewritten extraction may match —
        # and the rewriter must not fabricate privacy.
        graph, _ = build_standard_ffn("shared", **TINY)
        act = graph.producer_of("shared.act.out")
        graph.add(
            Gemm(
                "shared.branch",
                lhs=act.output.with_shape((TINY["m"], TINY["n"])),
                rhs=TensorSpec("shared.W2", (TINY["n"], TINY["l"])),
            )
        )
        on = extract_chains(graph, rewrite=True)
        assert extract_chains(graph).num_chains == 0
        assert on.num_chains == 0
        assert on.rewrite.rules_fired == ()

    def test_produced_weight_blocks_link_insertion(self):
        # gemm1's weight is itself produced by a GEMM: the pair is not a
        # resident-weight chain, so insert-chain-activation must not fire —
        # neither on the data-slot pair nor on the weight-producing GEMM.
        a = TensorSpec("pw.A", (16, 8))
        b = TensorSpec("pw.B", (8, 4))
        u = TensorSpec("pw.U", (4, 4))
        v = TensorSpec("pw.V", (4, 4))
        graph = OperatorGraph("pw")
        g0 = graph.add(Gemm("pw.g0", lhs=a, rhs=b))
        wgen = graph.add(Gemm("pw.wgen", lhs=u, rhs=v))
        graph.add(Gemm("pw.g1", lhs=g0.output, rhs=wgen.output))
        result = canonicalize(graph)
        assert not result.changed
        assert extract_chains(result.graph).num_chains == 0

    def test_inserted_link_does_not_steal_the_first_region(self):
        # G0 -> act -> G1 -> G2: the raw graph matches (G0, act, G1); the
        # rewriter also links G1 -> G2, but the overlap tie-break must keep
        # claiming the first region, never fewer chains and the same anchor.
        a = TensorSpec("tie.A", (16, 8))
        b = TensorSpec("tie.B", (8, 8))
        c = TensorSpec("tie.C", (8, 8))
        d = TensorSpec("tie.D", (8, 8))
        graph = OperatorGraph("tie")
        g0 = graph.add(Gemm("tie.g0", lhs=a, rhs=b))
        act = graph.add(Activation("tie.act", ActivationKind.RELU, g0.output))
        g1 = graph.add(Gemm("tie.g1", lhs=act.output, rhs=c))
        graph.add(Gemm("tie.g2", lhs=g1.output, rhs=d))
        off = extract_chains(graph)
        on = extract_chains(graph, rewrite=True)
        assert on.rewrite.rules_fired == ("insert-chain-activation",)
        assert off.num_chains == on.num_chains == 1
        assert on.matches[0].operator_names == ("tie.g0", "tie.act", "tie.g1")

    def test_gated_chain_identity_link_survives_elimination(self):
        # A gated FFN whose activation was exported as IDENTITY: the link
        # sits producer->Elementwise, which is chain position, so identity
        # elimination must keep it and extraction must still match.
        graph, _ = build_gated_ffn("gid", **TINY)
        graph = OperatorGraph(
            "gid",
            [
                op
                if not isinstance(op, Activation)
                else Activation(op.name, ActivationKind.IDENTITY, op.input_spec)
                for op in graph.operators
            ],
        )
        result = canonicalize(graph)
        assert not result.changed
        assert extract_chains(graph, rewrite=True).num_chains == 1

    @pytest.mark.parametrize("entry", list_graph_zoo())
    def test_zoo_graphs_never_extract_fewer_chains(self, entry):
        graph = get_zoo_graph(entry, m=64)
        off = extract_chains(graph).num_chains
        on = extract_chains(graph, rewrite=True).num_chains
        assert off == 0
        assert on >= 1
