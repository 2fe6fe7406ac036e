"""Tests for execution plans, the kernel IR and the CUDA-like emitter."""


from repro.codegen.cuda_emitter import emit_cuda
from repro.codegen.kernel_ir import KernelIR, KernelSection, lower_plan
from repro.codegen.plan import ExecutionPlan
from repro.dataflow.analyzer import DataflowAnalyzer
from repro.dataflow.loop_schedule import LoopSchedule
from repro.dataflow.tiling import TileConfig
from repro.dsm_comm.geometry import ClusterGeometry
from repro.dsm_comm.primitives import PrimitiveKind
from repro.hardware.spec import h100_spec
from repro.ir.builders import build_gated_ffn, build_standard_ffn


def _plan(gated=False, geometry=None, schedule="nlk"):
    builder = build_gated_ffn if gated else build_standard_ffn
    _, chain = builder("cg-chain", m=128, n=1024, k=512, l=512)
    analyzer = DataflowAnalyzer(h100_spec())
    result = analyzer.analyze(
        chain,
        LoopSchedule.from_string("m", schedule),
        TileConfig(128, 128, 64, 128),
        geometry or ClusterGeometry(1, 4, 2, 4),
    )
    return ExecutionPlan.from_dataflow(result, predicted_cost_us=10.0, simulated_time_us=12.0)


class TestExecutionPlan:
    def test_from_dataflow_copies_fields(self):
        plan = _plan()
        assert plan.chain.name == "cg-chain"
        assert plan.predicted_cost_us == 10.0
        assert plan.simulated_time_us == 12.0
        assert plan.volumes

    def test_kernel_name_is_identifier_friendly(self):
        name = _plan().kernel_name
        assert name.startswith("flashfuser_")
        assert " " not in name and "." not in name and "-" not in name

    def test_summary_contains_key_fields(self):
        summary = _plan().summary()
        for key in ("workload", "schedule", "cluster", "block_tile", "dsm_bytes"):
            assert key in summary


class TestKernelIR:
    def test_sections_ordered_and_populated(self):
        ir = lower_plan(_plan())
        assert ir.section(KernelSection.PROLOGUE)
        assert ir.section(KernelSection.MAINLOOP)
        assert ir.section(KernelSection.EPILOGUE)

    def test_dsm_collectives_present_for_cluster_plan(self):
        ir = lower_plan(_plan(geometry=ClusterGeometry(2, 4, 2, 4)))
        assert ir.has_opcode(PrimitiveKind.ALL_EXCHANGE.value)
        assert ir.has_opcode(PrimitiveKind.SHUFFLE.value)
        assert ir.has_opcode(PrimitiveKind.REDUCE_SCATTER.value)
        assert ir.has_opcode("init_dsm_mbarriers")

    def test_single_block_plan_has_no_collectives(self):
        ir = lower_plan(_plan(geometry=ClusterGeometry.single_block()))
        assert not ir.has_opcode(PrimitiveKind.SHUFFLE.value)
        assert not ir.has_opcode("init_dsm_mbarriers")

    def test_gated_plan_uses_mul_exchange(self):
        ir = lower_plan(_plan(gated=True, geometry=ClusterGeometry(1, 2, 2, 2)))
        exchange = [
            s for s in ir.statements if s.opcode == PrimitiveKind.ALL_EXCHANGE.value
        ]
        assert exchange and "mul" in exchange[0].detail

    def test_store_is_last_epilogue_statement(self):
        ir = lower_plan(_plan())
        assert ir.section(KernelSection.EPILOGUE)[-1].opcode == "store_global"

    def test_duplicate_node_protection(self):
        ir = KernelIR("k")
        ir.add(KernelSection.PROLOGUE, "alloc_smem")
        assert ir.opcodes(KernelSection.PROLOGUE) == ["alloc_smem"]


class TestCudaEmitter:
    def test_source_contains_cluster_dims_and_kernel_name(self):
        plan = _plan(geometry=ClusterGeometry(2, 4, 2, 4))
        source = emit_cuda(plan, lower_plan(plan))
        assert plan.kernel_name in source
        assert "__cluster_dims__" in source
        assert "dsm_shuffle" in source

    def test_source_mentions_workload_dimensions(self):
        plan = _plan()
        source = emit_cuda(plan, lower_plan(plan))
        assert "N=1024" in source and "K=512" in source

    def test_source_sections_in_order(self):
        plan = _plan()
        source = emit_cuda(plan, lower_plan(plan))
        assert source.index("prologue") < source.index("mainloop") < source.index("epilogue")
