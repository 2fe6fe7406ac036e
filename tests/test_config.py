"""Tests for the unified compiler API.

Covers :class:`FuserConfig` round-tripping, the device registry, cache-key
stability across override and config construction, ``submit()`` future
equivalence with ``compile()``, structured requests through the server, and
a public-API snapshot guarding accidental surface changes.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro import (
    CompileRequest,
    FlashFuser,
    FuserConfig,
    KernelServer,
    PlanCache,
    compile_chain,
    get_device,
    h100_spec,
    list_devices,
    register_device,
    warmup_workloads,
)
from repro.api import FusionError
from repro.hardware.registry import device_name_of, unregister_device
from repro.ir.builders import build_standard_ffn
from repro.runtime.cache import plan_cache_key


def _tiny(name="cfg-tiny", m=64, n=256, k=128, l=128):
    _, spec = build_standard_ffn(name, m=m, n=n, k=k, l=l)
    return spec


# --------------------------------------------------------------------- #
# FuserConfig
# --------------------------------------------------------------------- #
class TestFuserConfig:
    def test_defaults_match_the_paper(self):
        config = FuserConfig()
        assert config.device == "h100"
        assert config.top_k == 11
        assert config.include_dsm is True
        assert config.max_tile == 256
        assert config.cache is None
        assert config.transfer is False

    def test_cache_key_fields_format_is_pinned(self):
        # The exact dict the plan cache folds into its keys.  Changing this
        # invalidates every persisted plan cache; the transfer entries are
        # there because transfer can change which plan is selected.
        assert FuserConfig(top_k=5, max_tile=128).cache_key_fields() == {
            "top_k": 5,
            "include_dsm": True,
            "max_tile": 128,
            "transfer": False,
            "transfer_bound": 2.0,
        }

    def test_replace_returns_new_frozen_value(self):
        config = FuserConfig()
        derived = config.replace(top_k=5, device="a100")
        assert derived.top_k == 5 and derived.device == "a100"
        assert config.top_k == 11 and config.device == "h100"
        assert config.replace() is config
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.top_k = 3

    def test_validation(self):
        with pytest.raises(ValueError):
            FuserConfig(top_k=0)
        with pytest.raises(ValueError):
            FuserConfig(max_tile=0)
        # replace() re-validates like construction.
        with pytest.raises(ValueError):
            FuserConfig().replace(top_k=-1)

    def test_dict_round_trip(self):
        config = FuserConfig(
            device="a100",
            top_k=7,
            include_dsm=False,
            max_tile=64,
            cache="/tmp/flashfuser-plans",
            transfer=True,
        )
        assert FuserConfig.from_dict(config.to_dict()) == config

    def test_registered_spec_serializes_by_name(self):
        config = FuserConfig(device=h100_spec())
        payload = config.to_dict()
        assert payload["device"] == "h100"
        restored = FuserConfig.from_dict(payload)
        assert (
            restored.resolve_device().fingerprint()
            == config.resolve_device().fingerprint()
        )

    def test_unregistered_spec_is_not_serializable(self):
        custom = dataclasses.replace(h100_spec(), name="Custom GPU", num_sms=96)
        with pytest.raises(ValueError, match="not registered"):
            FuserConfig(device=custom).to_dict()

    def test_memory_only_cache_is_not_serializable(self):
        with pytest.raises(ValueError, match="memory-only"):
            FuserConfig(cache=PlanCache()).to_dict()

    def test_directory_cache_serializes_by_path(self, tmp_path):
        payload = FuserConfig(cache=PlanCache(directory=tmp_path)).to_dict()
        assert payload["cache"] == str(tmp_path)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            FuserConfig.from_dict({"top_k": 3, "beam_width": 8})

    def test_resolve_device_uses_registry(self, a100):
        assert FuserConfig(device="a100").resolve_device() is get_device("a100")
        assert FuserConfig(device=a100).resolve_device() is a100

    def test_resolve_cache_constructs_from_path(self, tmp_path):
        cache = FuserConfig(cache=tmp_path / "plans").resolve_cache()
        assert isinstance(cache, PlanCache)
        assert FuserConfig().resolve_cache() is None


# --------------------------------------------------------------------- #
# Device registry
# --------------------------------------------------------------------- #
class TestDeviceRegistry:
    def test_builtin_presets_registered(self):
        assert {"h100", "a100"} <= set(list_devices())
        assert get_device("h100").has_dsm
        assert not get_device("a100").has_dsm

    def test_lookup_is_memoized_and_case_insensitive(self):
        assert get_device("h100") is get_device("H100")
        assert get_device(None).fingerprint() == get_device("h100").fingerprint()

    def test_spec_passes_through(self, h100):
        assert get_device(h100) is h100

    def test_unknown_device_lists_registered(self):
        with pytest.raises(KeyError, match="registered devices"):
            get_device("tpu-v5")

    def test_register_and_reverse_lookup(self):
        derated = dataclasses.replace(
            h100_spec(), name="H100 derated", peak_fp16_tflops=700.0
        )
        register_device("h100-derated", derated)
        try:
            assert get_device("h100-derated") is derated
            assert device_name_of(derated) == "h100-derated"
            with pytest.raises(ValueError, match="already registered"):
                register_device("h100-derated", derated)
            register_device("h100-derated", derated, overwrite=True)
        finally:
            unregister_device("h100-derated")
        assert "h100-derated" not in list_devices()

    def test_fresh_spec_maps_back_to_its_name(self):
        # h100_spec() builds a new instance; the fingerprint still matches.
        assert device_name_of(h100_spec()) == "h100"

    def test_unregistered_spec_has_no_name(self):
        custom = dataclasses.replace(h100_spec(), name="one-off", num_sms=7)
        assert device_name_of(custom) is None


# --------------------------------------------------------------------- #
# Cache-key stability: old kwargs vs FuserConfig construction
# --------------------------------------------------------------------- #
class TestCacheKeyStability:
    def test_same_key_for_both_construction_styles(self, h100):
        chain = _tiny()
        cache = PlanCache()
        old_style = FlashFuser(device=h100, top_k=5, max_tile=128, cache=cache)
        new_style = FlashFuser(
            config=FuserConfig(device="h100", top_k=5, max_tile=128, cache=cache)
        )
        assert old_style.cache_key(chain) == new_style.cache_key(chain)
        # ... and both equal the canonical key format, spelled out literally.
        assert old_style.cache_key(chain) == plan_cache_key(
            chain,
            h100,
            {
                "top_k": 5,
                "include_dsm": True,
                "max_tile": 128,
                "transfer": False,
                "transfer_bound": 2.0,
            },
        )

    def test_old_compile_populates_cache_for_new_api(self, h100):
        chain = _tiny("cfg-xstyle")
        cache = PlanCache()
        old_kernel = FlashFuser(
            device=h100, top_k=2, max_tile=64, cache=cache
        ).compile(chain)
        response = FlashFuser(
            config=FuserConfig(device="h100", top_k=2, max_tile=64, cache=cache)
        ).compile_request(CompileRequest(chain=chain))
        # A cache hit proves the keys are bit-identical across styles.
        assert response.cache_hit
        assert response.kernel.plan.summary() == old_kernel.plan.summary()
        assert response.kernel.source == old_kernel.source


# --------------------------------------------------------------------- #
# CompileRequest / CompileResponse
# --------------------------------------------------------------------- #
class TestCompileRequest:
    def test_exactly_one_target_required(self):
        with pytest.raises(ValueError):
            CompileRequest()
        with pytest.raises(ValueError):
            CompileRequest(chain=_tiny(), workload="G1")

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            CompileRequest(workload="G1", m=0)

    def test_resolve_chain_by_workload_with_m(self):
        chain = CompileRequest(workload="G1", m=256).resolve_chain()
        assert chain.name == "G1"
        assert chain.m == 256

    def test_resolve_chain_passthrough(self):
        chain = _tiny()
        assert CompileRequest(chain=chain).resolve_chain() is chain

    def test_overrides_are_snapshotted(self):
        knobs = {"top_k": 1}
        request = CompileRequest(workload="G1", overrides=knobs)
        knobs["top_k"] = 8
        assert request.overrides == {"top_k": 1}


class TestSubmitFutures:
    def test_submit_equivalent_to_compile(self, h100):
        chain = _tiny("cfg-submit")
        with FlashFuser(device=h100, top_k=2, max_tile=64) as compiler:
            direct = compiler.compile(chain)
            response = compiler.submit(CompileRequest(chain=chain)).result()
        assert response.kernel.plan.summary() == direct.plan.summary()
        assert response.kernel.source == direct.source
        assert response.kernel.report.time_us == direct.report.time_us
        assert response.cache_hit is False
        assert response.cache_key is None  # no cache attached
        assert response.elapsed_s > 0
        assert response.config is compiler.config

    def test_submit_provenance_reports_cache_hits(self, h100):
        chain = _tiny("cfg-submit-cache")
        with FlashFuser(
            device=h100, top_k=2, max_tile=64, cache=PlanCache()
        ) as compiler:
            first = compiler.submit(CompileRequest(chain=chain)).result()
            second = compiler.submit(CompileRequest(chain=chain)).result()
        assert first.cache_hit is False and second.cache_hit is True
        assert first.cache_key == second.cache_key
        assert second.kernel.plan.summary() == first.kernel.plan.summary()
        assert "cache_hit" in second.provenance()

    def test_submit_overrides_do_not_change_plans_or_keys(self, h100):
        chain = _tiny("cfg-submit-par")
        with FlashFuser(
            device=h100, top_k=2, max_tile=64, cache=PlanCache()
        ) as compiler:
            # The device by registry name instead of the configured spec:
            # the key folds in the hardware fingerprint, so it is unchanged.
            cold = compiler.submit(
                CompileRequest(chain=chain, overrides={"device": "h100"})
            ).result()
            warm = compiler.submit(CompileRequest(chain=chain)).result()
        assert cold.cache_key == warm.cache_key
        assert warm.cache_hit

    def test_fusion_error_raises_from_future(self, h100, large_chain):
        with FlashFuser(
            device=h100, include_dsm=False, top_k=3, max_tile=128
        ) as compiler:
            future = compiler.submit(CompileRequest(chain=large_chain))
            with pytest.raises(FusionError):
                future.result()


class TestServerRequests:
    def _server(self, h100, **kwargs):
        return KernelServer(
            compiler=FlashFuser(device=h100, top_k=2, max_tile=64, cache=PlanCache()),
            m_bins=(64, 128),
            **kwargs,
        )

    def test_workload_compile_request_matches_classic_form(self, h100):
        server = self._server(h100)
        classic = server.request("G1", 100)
        structured = server.request(CompileRequest(workload="G1", m=100))
        assert structured.source == "table"
        assert structured.kernel is classic.kernel
        assert structured.bin_m == classic.bin_m == 128

    def test_arbitrary_chain_is_servable(self, h100):
        server = self._server(h100)
        chain = _tiny("cfg-served-chain", m=128)
        first = server.request(CompileRequest(chain=chain, m=70))
        assert first.workload.startswith("chain:")
        assert first.bin_m == 128
        # Same N/K/L family, different carried M: shares the table.
        second = server.request(CompileRequest(chain=chain.scaled(m=64), m=90))
        assert second.source == "table"
        assert second.kernel is first.kernel

    def test_request_argument_validation(self, h100):
        server = self._server(h100)
        with pytest.raises(TypeError):
            server.request("G1")
        with pytest.raises(TypeError):
            server.request(CompileRequest(workload="G1", m=64), 64)

    def test_plan_shaping_overrides_bypass_shared_tables(self, h100):
        server = self._server(h100)
        overridden = server.request(
            CompileRequest(workload="G1", m=64, overrides={"top_k": 3})
        )
        assert overridden.source == "compiled"
        # The overridden kernel must not be stored in (or served from) the
        # shared table, which only holds the server-config plans.
        plain = server.request("G1", 64)
        assert plain.source == "compiled"
        assert server.request("G1", 64).source == "table"
        # Repeated overridden requests resolve via the plan cache instead.
        again = server.request(
            CompileRequest(workload="G1", m=64, overrides={"top_k": 3})
        )
        assert again.source == "cache:memory"


class TestPoolOwnership:
    @pytest.fixture
    def close_counter(self, monkeypatch):
        closed = {"count": 0}
        original = FlashFuser.close

        def counting(self):
            closed["count"] += 1
            original(self)

        monkeypatch.setattr(FlashFuser, "close", counting)
        return closed

    def test_warmup_leaves_caller_compilers_open(self, h100, close_counter):
        compiler = FlashFuser(device=h100, top_k=2, max_tile=64)
        warmup_workloads(compiler, workload_ids=[], m_bins=(64,))
        assert close_counter["count"] == 0
        compiler.close()


class TestCompileChainCleanup:
    def test_compile_chain_closes_its_compiler(self, h100, monkeypatch):
        closed = {"count": 0}
        original = FlashFuser.close

        def counting(self):
            closed["count"] += 1
            original(self)

        monkeypatch.setattr(FlashFuser, "close", counting)
        kernel = compile_chain(_tiny("cfg-oneshot"), device=h100, top_k=2, max_tile=64)
        assert kernel.time_us > 0
        assert closed["count"] == 1

    def test_compile_chain_closes_on_failure(self, h100, large_chain, monkeypatch):
        closed = {"count": 0}
        original = FlashFuser.close

        def counting(self):
            closed["count"] += 1
            original(self)

        monkeypatch.setattr(FlashFuser, "close", counting)
        with pytest.raises(FusionError):
            compile_chain(
                large_chain, device=h100, include_dsm=False, top_k=3, max_tile=128
            )
        assert closed["count"] == 1


# --------------------------------------------------------------------- #
# Public surface
# --------------------------------------------------------------------- #
#: The intentional public API.  Adding or removing an export is an API
#: decision — update this snapshot deliberately, not by accident.
EXPECTED_EXPORTS = frozenset(
    {
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
    }
)


class TestPublicSurface:
    def test_public_api_snapshot(self):
        assert set(repro.__all__) == EXPECTED_EXPORTS

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            FlashFuser(beam_width=8)

    def test_positional_device_rejected(self, h100):
        with pytest.raises(TypeError, match="device="):
            FlashFuser(h100)
