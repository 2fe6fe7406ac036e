"""Tests for the runtime serving subsystem (cache, compile fan-out, server,
warmup, stats)."""

from __future__ import annotations

import json

import pytest

from repro import CompileRequest, FlashFuser, FusionError, KernelTable, compile_graph
from repro.codegen.plan import ExecutionPlan
from repro.ir.builders import build_standard_ffn
from repro.ir.workloads import MODEL_ZOO, get_chain_spec
from repro.runtime import (
    KernelServer,
    PlanCache,
    PlanCacheEntry,
    ServingStats,
    plan_cache_key,
    warmup_workloads,
)
from repro.search.engine import SearchEngine, SearchSummary
from repro.sim.engine import SimulationReport


@pytest.fixture
def search_calls(monkeypatch):
    """Count live fusion-search invocations (cache hits must not add any)."""
    calls = {"count": 0}
    original = SearchEngine.search

    def counted(self, chain):
        calls["count"] += 1
        return original(self, chain)

    monkeypatch.setattr(SearchEngine, "search", counted)
    return calls


def _chain(name="rt-small", m=128, n=512, k=256, l=256):
    _, spec = build_standard_ffn(name, m=m, n=n, k=k, l=l)
    return spec


def _compiler(h100, cache):
    return FlashFuser(device=h100, top_k=3, max_tile=128, cache=cache)


# --------------------------------------------------------------------- #
# Canonical identity and serialization
# --------------------------------------------------------------------- #
class TestCanonicalIdentity:
    def test_hash_ignores_name(self):
        assert _chain("a").canonical_hash() == _chain("b").canonical_hash()
        assert _chain("a").same_shape(_chain("b"))

    def test_hash_differs_by_shape(self):
        assert _chain().canonical_hash() != _chain(m=256).canonical_hash()

    def test_chain_dict_round_trip(self):
        chain = _chain()
        assert type(chain).from_dict(chain.to_dict()) == chain

    def test_cache_key_depends_on_config_and_device(self, h100, a100):
        chain = _chain()
        base = plan_cache_key(chain, h100, {"top_k": 3})
        assert base == plan_cache_key(chain, h100, {"top_k": 3})
        assert base != plan_cache_key(chain, h100, {"top_k": 5})
        assert base != plan_cache_key(chain, a100, {"top_k": 3})


class TestPlanSerialization:
    def test_execution_plan_round_trip(self, compiled_small):
        plan = compiled_small.plan
        payload = json.loads(json.dumps(plan.to_dict()))
        restored = ExecutionPlan.from_dict(payload)
        assert restored.summary() == plan.summary()
        assert restored.kernel_name == plan.kernel_name
        assert restored.comm_plan.dsm_bytes() == plan.comm_plan.dsm_bytes()

    def test_plan_chain_substitution_requires_same_shape(self, compiled_small):
        payload = compiled_small.plan.to_dict()
        renamed = compiled_small.plan.chain.scaled(name="other-name")
        assert ExecutionPlan.from_dict(payload, chain=renamed).chain.name == "other-name"
        with pytest.raises(ValueError):
            ExecutionPlan.from_dict(payload, chain=_chain(m=256))

    def test_simulation_report_round_trip(self, compiled_small):
        report = compiled_small.report
        restored = SimulationReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert restored.time_us == report.time_us
        assert restored.tflops == pytest.approx(report.tflops)
        assert restored.per_level_us == report.per_level_us

    def test_search_summary_round_trip(self, compiled_small):
        summary = compiled_small.search.summary()
        restored = SearchSummary.from_dict(summary.to_dict(), from_cache=True)
        assert restored.succeeded
        assert restored.from_cache
        assert restored.candidates_analyzed == summary.candidates_analyzed


# --------------------------------------------------------------------- #
# Plan cache
# --------------------------------------------------------------------- #
class TestPlanCache:
    def test_second_compile_skips_search(self, h100, search_calls):
        compiler = _compiler(h100, PlanCache())
        chain = _chain()
        first = compiler.compile(chain)
        assert search_calls["count"] == 1
        second = compiler.compile(chain)
        assert search_calls["count"] == 1
        assert second is first  # memoized rehydrated kernel
        assert second.plan.summary() == first.plan.summary()

    def test_disk_round_trip_identical_summary(self, h100, tmp_path, search_calls):
        chain = _chain()
        first = _compiler(h100, PlanCache(directory=tmp_path)).compile(chain)
        assert search_calls["count"] == 1

        # A fresh process-level cache must load the plan without searching.
        reloaded = _compiler(h100, PlanCache(directory=tmp_path)).compile(chain)
        assert search_calls["count"] == 1
        assert reloaded.from_cache
        assert reloaded.plan.summary() == first.plan.summary()
        assert reloaded.source == first.source
        assert reloaded.report.to_dict() == first.report.to_dict()
        assert reloaded.traffic.total_bytes == first.traffic.total_bytes

    def test_equally_shaped_chain_shares_entry(self, h100, search_calls):
        compiler = _compiler(h100, PlanCache())
        compiler.compile(_chain("name-one"))
        other = compiler.compile(_chain("name-two"))
        assert search_calls["count"] == 1
        assert other.plan.chain.name == "name-two"
        assert other.plan.summary()["workload"] == "name-two"

    def test_different_search_config_misses(self, h100, search_calls):
        cache = PlanCache()
        chain = _chain()
        _compiler(h100, cache).compile(chain)
        FlashFuser(device=h100, top_k=5, max_tile=128, cache=cache).compile(chain)
        assert search_calls["count"] == 2

    def test_lru_eviction_falls_back_to_disk(self, h100, tmp_path, search_calls):
        cache = PlanCache(directory=tmp_path, max_memory_entries=1)
        compiler = _compiler(h100, cache)
        chain_a, chain_b = _chain("a"), _chain("b", n=1024)
        compiler.compile(chain_a)
        compiler.compile(chain_b)  # evicts chain_a from the memory tier
        assert cache.stats.evictions >= 1
        assert len(cache) == 1
        compiler.compile(chain_a)  # served by the disk tier, not a search
        assert search_calls["count"] == 2
        assert cache.stats.disk_hits >= 1

    def test_corrupt_disk_entry_is_a_miss(self, h100, tmp_path, search_calls):
        cache = PlanCache(directory=tmp_path)
        compiler = _compiler(h100, cache)
        chain = _chain()
        compiler.compile(chain)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        fresh = _compiler(h100, PlanCache(directory=tmp_path))
        fresh.compile(chain)
        assert search_calls["count"] == 2

    def test_entry_json_round_trip(self, compiled_small):
        entry = PlanCacheEntry.from_kernel("some-key", compiled_small)
        restored = PlanCacheEntry.from_json(entry.to_json())
        assert restored is not None
        kernel = restored.rehydrate()
        assert kernel.plan.summary() == compiled_small.plan.summary()
        assert kernel.from_cache

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_memory_entries=0)

    def test_directory_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        with pytest.raises(ValueError):
            PlanCache(directory=target)

    def test_concurrent_same_key_writers_leave_valid_entry(
        self, tmp_path, compiled_small
    ):
        # Multi-process safety satellite: writers go through a private
        # temp file + atomic os.replace, so same-key racers can interleave
        # freely — the final file is always one writer's complete JSON.
        import threading

        entry = PlanCacheEntry.from_kernel("shared-key", compiled_small)
        caches = [PlanCache(directory=tmp_path) for _ in range(4)]
        barrier = threading.Barrier(len(caches))

        def hammer(cache):
            barrier.wait()
            for _ in range(10):
                cache.put("shared-key", entry)

        threads = [
            threading.Thread(target=hammer, args=(cache,)) for cache in caches
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "shared-key.json"
        ]  # no temp-file debris
        reloaded = PlanCache(directory=tmp_path)
        loaded = reloaded.get("shared-key")
        assert loaded is not None
        assert loaded.rehydrate().plan.summary() == compiled_small.plan.summary()

    def test_clear_sweeps_orphaned_temp_files(self, tmp_path, compiled_small):
        cache = PlanCache(directory=tmp_path)
        cache.put("key", PlanCacheEntry.from_kernel("key", compiled_small))
        orphan = tmp_path / "key.json.tmp.1234.5678"
        orphan.write_text("{half-written", encoding="utf-8")
        cache.clear(disk=True)
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- #
# KernelTable lookup edge cases
# --------------------------------------------------------------------- #
class TestKernelTableLookup:
    @pytest.fixture
    def table(self, small_chain):
        # Lookup semantics do not depend on kernel contents; sentinels keep
        # this table cheap to build.
        return KernelTable(
            chain=small_chain, kernels={64: "k64", 128: "k128", 256: "k256"}
        )

    def test_m_between_bins_rounds_up(self, table):
        assert table.bin_for(65) == 128
        assert table.lookup(65) == "k128"

    def test_m_on_bin_boundary(self, table):
        assert table.lookup(64) == "k64"
        assert table.lookup(256) == "k256"

    def test_m_above_largest_bin_reuses_largest(self, table):
        assert table.bin_for(100_000) == 256
        assert table.lookup(100_000) == "k256"

    def test_empty_table_raises_key_error(self, small_chain):
        with pytest.raises(KeyError):
            KernelTable(chain=small_chain).lookup(64)

    def test_non_positive_m_rejected(self, table):
        with pytest.raises(ValueError):
            table.lookup(0)
        with pytest.raises(ValueError):
            table.lookup(-3)


# --------------------------------------------------------------------- #
# Compile fan-out (FlashFuser.compile_chains)
# --------------------------------------------------------------------- #
def _serial_plans(h100, chains):
    """(plan dict, plan-cache key) per chain from serial compile_request calls."""
    with _compiler(h100, PlanCache()) as serial:
        responses = [
            serial.compile_request(CompileRequest(chain=chain)) for chain in chains
        ]
    return [(r.kernel.plan.to_dict(), r.cache_key) for r in responses]


class TestCompileChains:
    def test_repeated_shapes_search_once(self, h100, search_calls):
        with _compiler(h100, PlanCache()) as compiler:
            outcomes = compiler.compile_chains(
                [_chain("dup-a"), _chain("other", m=64), _chain("dup-b")]
            )
        assert search_calls["count"] == 2
        assert [outcome.cache_hit for outcome in outcomes] == [False] * 3
        # A duplicate shares the first equally shaped chain's response.
        assert outcomes[2] is outcomes[0]
        assert outcomes[2].kernel.plan.chain.name == "dup-a"
        assert outcomes[1].kernel.plan.chain.m == 64

    def test_failures_do_not_abort_batch(self, h100, large_chain):
        with FlashFuser(
            device=h100, include_dsm=False, top_k=3, max_tile=128
        ) as compiler:
            failed, ok = compiler.compile_chains([large_chain, _chain()])
        assert isinstance(failed, FusionError) and str(failed)
        assert ok.kernel.plan.chain.name == "rt-small"

    def test_duplicate_bins_searched_once(self, h100, search_calls):
        with _compiler(h100, PlanCache()) as compiler:
            table = compiler.compile_table(_chain(), m_bins=(64, 64, 128, 128))
        assert table.bins() == [64, 128]
        assert search_calls["count"] == 2
        assert table.lookup(100).plan.chain.m == 128

    def test_table_plans_and_keys_match_serial_compiles(self, h100):
        base = _chain()
        bins = (32, 64, 128, 256)
        with _compiler(h100, PlanCache()) as compiler:
            table = compiler.compile_table(base, m_bins=bins)
            keys = [
                compiler.cache_key(table.kernels[m].plan.chain) for m in bins
            ]
        serial = _serial_plans(
            h100, [base.scaled(m=m, name=f"{base.name}_m{m}") for m in bins]
        )
        assert [table.kernels[m].plan.to_dict() for m in bins] == [
            plan for plan, _ in serial
        ]
        assert keys == [key for _, key in serial]

    def test_warmup_plans_and_keys_match_serial_compiles(self, h100):
        ids, bins = ["G1", "G4", "S1"], (64, 128)
        with _compiler(h100, PlanCache()) as compiler:
            report = warmup_workloads(compiler, ids, m_bins=bins)
            fanned = [
                (kernel.plan.to_dict(), compiler.cache_key(kernel.plan.chain))
                for kernel in (report.tables[w].kernels[m] for w in ids for m in bins)
            ]
        serial = _serial_plans(
            h100,
            [
                get_chain_spec(w).scaled(m=m, name=f"{w}_m{m}")
                for w in ids
                for m in bins
            ],
        )
        assert fanned == serial

    def test_graph_plans_and_keys_match_serial_compiles(self, h100, tmp_path):
        for name, model in MODEL_ZOO.items():
            graph = model.layer_graph(seq_len=128)
            cache = PlanCache(directory=tmp_path / name)
            with _compiler(h100, cache) as compiler:
                plan = compile_graph(graph, compiler=compiler)
            # compile_graph canonicalizes before extracting; the serial
            # reference compiles the first chain of each shape it extracted.
            first = {}
            for segment in plan.fused_segments:
                first.setdefault(segment.chain.canonical_hash(), segment.chain)
            serial = dict(
                zip(first, _serial_plans(h100, list(first.values())))
            )
            assert plan.fused_segments, name
            for segment in plan.fused_segments:
                expected, _ = serial[segment.chain.canonical_hash()]
                assert segment.kernel.plan.to_dict() == expected, name
            assert cache.disk_keys() == sorted(key for _, key in serial.values())


# --------------------------------------------------------------------- #
# Kernel server
# --------------------------------------------------------------------- #
class TestKernelServer:
    def test_repeat_request_never_searches_again(self, h100, search_calls):
        server = KernelServer(
            compiler=_compiler(h100, PlanCache()), m_bins=(64, 128)
        )
        first = server.request("G1", 100)
        assert first.source == "compiled"
        assert first.bin_m == 128
        assert search_calls["count"] == 1

        second = server.request("G1", 100)
        assert second.source == "table"
        assert second.kernel is first.kernel
        assert search_calls["count"] == 1

        # A different M mapping to the same bin shares the kernel too.
        third = server.request("G1", 70)
        assert third.bin_m == 128
        assert third.kernel is first.kernel
        assert search_calls["count"] == 1

    def test_restart_serves_from_disk_cache(self, h100, tmp_path, search_calls):
        server = KernelServer(
            compiler=_compiler(h100, PlanCache(directory=tmp_path)),
            m_bins=(64, 128),
        )
        server.request("G1", 128)
        assert search_calls["count"] == 1

        restarted = KernelServer(
            compiler=_compiler(h100, PlanCache(directory=tmp_path)),
            m_bins=(64, 128),
        )
        response = restarted.request("G1", 128)
        assert response.source == "cache:disk"
        assert search_calls["count"] == 1
        assert restarted.request("G1", 128).source == "table"

    def test_stats_track_hits_and_latency(self, h100, search_calls):
        server = KernelServer(
            compiler=_compiler(h100, PlanCache()), m_bins=(64, 128)
        )
        server.request("G1", 128)
        server.request("G1", 128)
        snapshot = server.snapshot()
        serving = snapshot["serving"]
        assert serving["requests"] == 2
        assert serving["misses"] == 1
        assert serving["hit_rate"] == pytest.approx(0.5)
        assert serving["by_source"]["table"] == 1
        assert serving["overall_latency_us"]["count"] == 2
        assert snapshot["tables"]["G1"] == [128]

    def test_corrupt_cache_entry_recorded_as_compile(
        self, h100, tmp_path, search_calls
    ):
        KernelServer(
            compiler=_compiler(h100, PlanCache(directory=tmp_path)),
            m_bins=(64, 128),
        ).request("G1", 128)
        for path in tmp_path.glob("*.json"):
            path.write_text("garbage{{{", encoding="utf-8")
        restarted = KernelServer(
            compiler=_compiler(h100, PlanCache(directory=tmp_path)),
            m_bins=(64, 128),
        )
        response = restarted.request("G1", 128)
        # The disk file exists but is unreadable: a search actually ran, and
        # the metrics must say so rather than reporting a phantom disk hit.
        assert response.source == "compiled"
        assert search_calls["count"] == 2
        # One probe per miss: the torn entry is read (and counted) once.
        stats = restarted.cache.stats
        assert (stats.corrupt_entries, stats.misses) == (1, 1)

    def test_cold_request_probes_the_cache_once(self, h100, search_calls):
        server = KernelServer(
            compiler=FlashFuser(device=h100, top_k=2, max_tile=64, cache=PlanCache()),
            m_bins=(64,),
        )
        assert server.request("G1", 64).source == "compiled"
        stats = server.cache.stats.to_dict()
        assert (stats["misses"], stats["stores"], stats["memory_hits"]) == (1, 1, 0)
        assert search_calls["count"] == 1

    def test_cache_accepts_directory_path(self, h100, tmp_path):
        server = KernelServer(
            compiler=FlashFuser(device=h100, top_k=3, max_tile=128),
            cache=tmp_path / "plans",
        )
        assert isinstance(server.cache, PlanCache)
        server.request("G1", 64)
        assert server.cache.disk_keys()

    def test_concurrent_first_requests_search_once(self, h100, search_calls):
        import threading

        server = KernelServer(
            compiler=_compiler(h100, PlanCache()), m_bins=(64, 128)
        )
        errors = []

        def hit():
            try:
                server.request("G1", 128)
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert search_calls["count"] == 1
        assert server.stats.requests == 4
        assert server.stats.misses == 1

    def test_invalid_m_rejected(self, h100):
        server = KernelServer(compiler=_compiler(h100, PlanCache()))
        with pytest.raises(ValueError):
            server.request("G1", 0)

    def test_invalid_bins_rejected(self, h100):
        with pytest.raises(ValueError):
            KernelServer(compiler=_compiler(h100, None), m_bins=())
        with pytest.raises(ValueError):
            KernelServer(compiler=_compiler(h100, None), m_bins=(0, 64))

    def test_warmup_precompiles_requests(self, h100, search_calls):
        server = KernelServer(
            compiler=_compiler(h100, PlanCache()), m_bins=(64, 128)
        )
        report = server.warmup(["G1"], m_bins=(64, 128))
        assert report.jobs == 2
        assert report.succeeded == 2
        searches_after_warmup = search_calls["count"]

        response = server.request("G1", 90)
        assert response.source == "table"
        assert search_calls["count"] == searches_after_warmup


# --------------------------------------------------------------------- #
# Warmup API
# --------------------------------------------------------------------- #
class TestWarmup:
    def test_warmup_builds_tables_and_dedups(self, h100, search_calls):
        compiler = _compiler(h100, PlanCache())
        report = warmup_workloads(compiler, ["G1"], m_bins=(64, 128))
        assert report.jobs == 2
        assert report.compiled == 2
        assert report.tables["G1"].bins() == [64, 128]

        again = warmup_workloads(compiler, ["G1"], m_bins=(64, 128))
        assert again.cached == 2
        assert search_calls["count"] == 2

    def test_repeated_workload_counts_as_cached(self, h100, search_calls):
        with _compiler(h100, PlanCache()) as compiler:
            report = warmup_workloads(compiler, ["G1", "G1"], m_bins=(64,))
        assert search_calls["count"] == 1
        assert (report.jobs, report.compiled, report.cached) == (2, 1, 1)
        assert report.tables["G1"].bins() == [64]

    def test_warmup_rejects_bad_bins(self, h100):
        compiler = _compiler(h100, None)
        with pytest.raises(ValueError):
            warmup_workloads(compiler, ["G1"], m_bins=())
        with pytest.raises(ValueError):
            warmup_workloads(compiler, ["G1"], m_bins=(-1,))


# --------------------------------------------------------------------- #
# Serving stats
# --------------------------------------------------------------------- #
class TestServingStats:
    def test_counters_and_hit_rate(self):
        stats = ServingStats()
        stats.record_request("G1", "table", 10.0)
        stats.record_request("G1", "compiled", 1000.0)
        stats.record_request("G2", "cache:disk", 50.0)
        assert stats.requests == 3
        assert stats.misses == 1
        assert stats.hit_rate() == pytest.approx(2 / 3)
        snapshot = stats.to_dict()
        assert snapshot["by_workload"] == {"G1": 2, "G2": 1}
        assert snapshot["latency_us"]["table"]["mean_us"] == pytest.approx(10.0)
        assert snapshot["overall_latency_us"]["max_us"] == pytest.approx(1000.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ServingStats().record_request("G1", "table", -1.0)

    def test_reset(self):
        stats = ServingStats()
        stats.record_request("G1", "table", 1.0)
        stats.reset()
        assert stats.requests == 0
        assert stats.to_dict()["by_source"] == {}


# --------------------------------------------------------------------- #
# Satellites: exports and the plan-cache directory
# --------------------------------------------------------------------- #
class TestPackageExports:
    def test_fusion_error_and_kernel_table_exported(self):
        import repro

        assert repro.FusionError is FusionError
        assert repro.KernelTable is KernelTable
        assert issubclass(repro.FusionError, RuntimeError)


class TestPlanCacheDirectory:
    def test_tilde_directory_is_expanded(self):
        from pathlib import Path

        from repro.runtime import PlanCache

        cache = PlanCache(directory="~/flashfuser-test-cache")
        assert cache.directory == Path.home() / "flashfuser-test-cache"
        assert "~" not in str(cache.directory)
