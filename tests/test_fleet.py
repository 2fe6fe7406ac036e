"""Tests for the serving fleet (`repro.fleet`).

The config and stats classes are tested in-process; the fleet lifecycle
tests spin up real worker processes, so they use the cheapest compiler
knobs (``top_k=2``, ``max_tile=64``) and share fleets per class where the
scenarios allow it.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.api import CompileRequest
from repro.bench.driver import LoadDriver
from repro.bench.traces import KIND_MODEL, poisson_trace
from repro.fleet import FleetConfig, FleetStats, ServingFleet
from repro.fleet import router as fleet_router
from repro.fleet.stats import ROUTER_KEYS
from repro.runtime.server import KernelServer
from repro.runtime.stats import ServingStats

#: Cheapest search knobs — fleet tests pay real compiles, keep them short.
FAST = dict(top_k=2, max_tile=64, health_interval_s=0.1)


def _wait(predicate, timeout_s=10.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


# --------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------- #
class TestFleetConfig:
    def test_round_trip(self):
        config = FleetConfig(workers=4, watermark=16, cache_dir="/tmp/ns")
        assert FleetConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(workers=0)
        with pytest.raises(ValueError):
            FleetConfig(watermark=0)
        with pytest.raises(ValueError):
            FleetConfig(start_method="threads")
        for unknown in ("worker_count", "affinity_slack", "broadcast"):
            with pytest.raises(ValueError):
                FleetConfig.from_dict({unknown: 2})

    def test_fuser_config_resolves_cache_dir(self):
        config = FleetConfig(device="h100", top_k=3, max_tile=64)
        fuser = config.fuser_config("/tmp/resolved")
        assert fuser.top_k == 3
        assert fuser.max_tile == 64
        assert str(fuser.cache) == "/tmp/resolved"


# --------------------------------------------------------------------- #
# Stats schema
# --------------------------------------------------------------------- #
class TestServingStatsSchema:
    def test_to_dict_schema_is_pinned(self):
        # The serialized schema is a contract: the fleet's front end ships
        # it in FleetStats and CI artifacts diff it.
        stats = ServingStats()
        stats.record_request("G9", "table", 2.0)
        stats.record_request("G1", "compiled", 800.0)
        payload = stats.to_dict()
        assert list(payload) == [
            "requests",
            "hits",
            "misses",
            "hit_rate",
            "by_source",
            "by_workload",
            "latency_us",
            "overall_latency_us",
        ]
        assert list(payload["by_source"]) == sorted(payload["by_source"])
        assert list(payload["by_workload"]) == sorted(payload["by_workload"])
        assert list(payload["latency_us"]) == sorted(payload["latency_us"])


class TestFleetStats:
    def _stats(self):
        return FleetStats(
            workers=2,
            alive=2,
            router={
                "queue_depth": {"1": 0, "0": 1},
                "routed": 3,
                "rejected": 1,
                "restarts": 0,
                "dispatched": 2,
                "custom_counter": 7,
            },
            serving=_serving_payload(0),
            models=_serving_payload(1),
            per_worker={"1": {"compiles": 2}, "0": {"compiles": 0}},
        )

    def test_to_dict_pins_key_order(self):
        payload = self._stats().to_dict()
        assert list(payload) == [
            "workers",
            "alive",
            "router",
            "serving",
            "models",
            "per_worker",
        ]
        router = payload["router"]
        pinned = [key for key in ROUTER_KEYS if key in router]
        assert list(router) == pinned + ["custom_counter"]
        assert list(router["queue_depth"]) == ["0", "1"]
        assert list(payload["per_worker"]) == ["0", "1"]
        assert ROUTER_KEYS[5] == "dispatched"
        assert not {"broadcasts", "broadcast_warms"} & set(ROUTER_KEYS)

    def test_serving_comes_from_front_end(self):
        stats = self._stats()
        payload = stats.to_dict()
        assert payload["serving"] == _serving_payload(0)
        assert payload["models"] == _serving_payload(1)
        assert payload["serving"]["requests"] == 1
        assert stats.restarts == 0


def _serving_payload(extra: int) -> dict:
    stats = ServingStats()
    stats.record_request("G1", "table", 10.0 + extra)
    return stats.to_dict()


def _dispatched(fleet) -> int:
    return fleet.stats().router["dispatched"]


# --------------------------------------------------------------------- #
# Live fleets (real worker processes)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fleet():
    """One shared 2-worker fleet for the read-mostly lifecycle tests."""
    with ServingFleet(FleetConfig(workers=2, **FAST)) as running:
        yield running


class TestFleetServing:
    def test_warm_hit_is_answered_in_process(self, fleet):
        cold = fleet.serve("G4", m=100)
        assert cold.ok and cold.source == "compiled"
        assert cold.worker in (0, 1)
        dispatched = _dispatched(fleet)
        warm = fleet.serve("G4", m=100)
        assert warm.ok and warm.source == "table"
        assert warm.worker is None
        assert warm.bin_m == cold.bin_m
        assert _dispatched(fleet) == dispatched

    def test_concurrent_misses_compile_once(self, fleet):
        dispatched = _dispatched(fleet)
        barrier = threading.Barrier(4)
        responses = []

        def miss():
            barrier.wait()
            responses.append(fleet.request("G10", 40))

        threads = [threading.Thread(target=miss) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(responses) == 4 and all(r.ok for r in responses)
        sources = sorted(r.source for r in responses)
        assert sources[0].startswith("compiled")
        assert sources[1:] == ["table"] * 3
        assert _dispatched(fleet) == dispatched + 1

    def test_model_requests_register_on_demand(self, fleet):
        response = fleet.serve("BERT", m=64, kind=KIND_MODEL)
        assert response.ok and response.source == "compiled"
        again = fleet.serve("BERT", m=64, kind=KIND_MODEL)
        assert again.ok and again.source in ("table", "cache:memory")

    def test_unknown_targets_rejected_up_front(self, fleet):
        with pytest.raises(KeyError):
            fleet.serve("no-such-workload", m=64)
        with pytest.raises(KeyError):
            fleet.serve("no-such-model", m=64, kind=KIND_MODEL)
        with pytest.raises(ValueError):
            fleet.request("G4", None)

    def test_stats_snapshot_shape(self, fleet):
        assert fleet.serve("G4", m=100).ok
        stats = fleet.stats()
        assert isinstance(stats, FleetStats)
        assert stats.workers == 2
        assert stats.alive == 2
        payload = stats.to_dict()
        assert payload["router"]["routed"] >= 1
        assert payload["router"]["dispatched"] >= 1
        assert set(payload["router"]["queue_depth"]) == {"0", "1"}
        assert set(payload["per_worker"]) == {"0", "1"}
        assert payload["serving"]["requests"] >= 1


class TestFrontEnd:
    def test_warm_request_not_blocked_by_pending_compile(self):
        with ServingFleet(FleetConfig(workers=1, **FAST)) as fleet:
            assert fleet.serve("G1", m=64).ok
            process = fleet._handles[0].process
            os.kill(process.pid, signal.SIGSTOP)
            try:
                cold = []
                blocked = threading.Thread(
                    target=lambda: cold.append(fleet.request("G2", 64)),
                    daemon=True,
                )
                blocked.start()
                assert _wait(lambda: len(fleet._pending) == 1)
                # The only worker is stopped mid-queue; a warm request for
                # another key is still answered by the front end.
                warm = fleet.request("G1", 64)
                assert warm.ok and warm.source == "table"
                assert warm.worker is None
                assert not cold and len(fleet._pending) == 1
            finally:
                os.kill(process.pid, signal.SIGCONT)
            blocked.join(timeout=60.0)
            assert cold and cold[0].ok and cold[0].source == "compiled"

    def test_pool_plans_match_in_process_compile(self, tmp_path):
        # perfbench's fleet-mixed model set and bins.
        models = ("BERT", "GPT-2", "OPT-1.3B", "Qwen2.5-1.5B")
        config = FleetConfig(workers=2, m_bins=(64, 256), **FAST)
        with ServingFleet(config, cache_dir=str(tmp_path / "fleet")) as fleet:
            for model in models:
                for m in config.m_bins:
                    assert fleet.serve(model, m=m, kind=KIND_MODEL).ok
            kernels = fleet.front_end.server
            tables = {
                key: kernels.table_for(key)
                for key in kernels.snapshot()["tables"]
            }
            local = KernelServer(
                config=config.fuser_config(str(tmp_path / "local")),
                m_bins=config.m_bins,
            )
            compared = 0
            for table in tables.values():
                for bin_m, pooled in table.kernels.items():
                    request = CompileRequest(chain=table.chain, m=bin_m)
                    response = local.request(request)
                    assert response.source == "compiled"
                    binned = table.chain.scaled(
                        m=bin_m, name=f"{table.chain.name}_m{bin_m}"
                    )
                    key = local.compiler.cache_key(binned)
                    assert kernels.cache.contains(key)
                    ours = response.kernel
                    assert pooled.plan.tile == ours.plan.tile
                    assert pooled.plan.geometry == ours.plan.geometry
                    assert pooled.plan.schedule == ours.plan.schedule
                    assert pooled.time_us == ours.time_us
                    compared += 1
            local.close()
        assert compared >= len(models)


def _exit_at_start(*_args):
    os._exit(3)


class TestFleetStartup:
    def test_worker_crash_at_start_fails_fast(self, monkeypatch):
        monkeypatch.setattr(fleet_router, "worker_main", _exit_at_start)
        fleet = ServingFleet(FleetConfig(workers=2, start_method="fork"))
        begin = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 3"):
            fleet.start(timeout=60.0)
        assert time.monotonic() - begin < 10.0
        assert fleet.alive_workers() == []

    def test_crash_looping_worker_respawns_with_backoff(self, monkeypatch):
        monkeypatch.setattr(fleet_router, "worker_main", _exit_at_start)
        config = FleetConfig(
            workers=1, start_method="fork", health_interval_s=0.05
        )
        fleet = ServingFleet(config).start(wait=False)
        try:
            time.sleep(3.0)
            restarts = fleet.stats().restarts
        finally:
            fleet.close()
        # Delays 0, 0.1, 0.2, 0.4, 0.8, 1.6 s: at most six respawns fit in
        # the window (without backoff it is one per process lifetime).
        assert 2 <= restarts <= 6


class TestFleetBackpressure:
    # The only worker is stopped before the blocking G8 compile is
    # dispatched, so that compile is certainly still in flight when the
    # test looks; the worker resumes once the rejection has been checked.
    def test_rejects_past_watermark_and_serve_retries(self):
        config = FleetConfig(
            workers=1, watermark=1, retry_after_s=0.02, health_interval_s=0.1
        )
        with ServingFleet(config) as fleet:
            process = fleet._handles[0].process
            os.kill(process.pid, signal.SIGSTOP)
            try:
                blocker = threading.Thread(
                    target=lambda: fleet.serve("G8", m=64), daemon=True
                )
                blocker.start()
                assert _wait(lambda: len(fleet._pending) >= 1)
                rejected = fleet.request("G1", 64)
            finally:
                os.kill(process.pid, signal.SIGCONT)
            assert rejected.rejected
            assert rejected.retry_after_s > 0
            assert rejected.worker is None
            # serve() blocks through the backpressure and succeeds once
            # the cold compile drains.
            served = fleet.serve("G1", m=64, max_wait_s=60.0)
            assert served.ok
            blocker.join(timeout=60.0)
            stats = fleet.stats().to_dict()
            assert stats["router"]["rejected"] >= 1

    def test_serve_returns_last_rejection_when_budget_exhausted(self):
        config = FleetConfig(
            workers=1, watermark=1, retry_after_s=0.05, health_interval_s=0.1
        )
        with ServingFleet(config) as fleet:
            process = fleet._handles[0].process
            os.kill(process.pid, signal.SIGSTOP)
            try:
                blocker = threading.Thread(
                    target=lambda: fleet.serve("G8", m=64), daemon=True
                )
                blocker.start()
                assert _wait(lambda: len(fleet._pending) >= 1)
                response = fleet.serve("G1", m=64, max_wait_s=0.01)
            finally:
                os.kill(process.pid, signal.SIGCONT)
            assert response.rejected
            blocker.join(timeout=60.0)


class TestPushedStats:
    def test_stats_never_wait_on_a_stopped_worker(self):
        config = FleetConfig(workers=1, health_interval_s=0.1)
        with ServingFleet(config) as fleet:
            # Stop the only worker first, so the G8 compile is certainly
            # still in flight when the snapshot is taken.
            process = fleet._handles[0].process
            os.kill(process.pid, signal.SIGSTOP)
            try:
                blocker = threading.Thread(
                    target=lambda: fleet.serve("G8", m=64), daemon=True
                )
                blocker.start()
                assert _wait(lambda: len(fleet._pending) >= 1)
                begin = time.monotonic()
                stats = fleet.stats()
                elapsed = time.monotonic() - begin
            finally:
                os.kill(process.pid, signal.SIGCONT)
            assert elapsed < 0.5
            router = stats.to_dict()["router"]
            assert list(router) == list(ROUTER_KEYS)
            assert router["inflight"] == 1
            assert router["queue_depth"] == {"0": 1}
            # The payload the worker pushed with its ready report.
            assert stats.per_worker["0"]["compiles"] == 0
            assert stats.per_worker["0"]["incarnation"] == 0
            blocker.join(timeout=120.0)
            # The compile result pushed a fresh payload.
            assert fleet.stats().per_worker["0"]["compiles"] == 1


class TestFleetFailover:
    # Failover tests use the default (slower) search knobs on purpose:
    # the compile must still be in flight when the kill lands.
    def test_killed_worker_requests_fail_over(self):
        config = FleetConfig(workers=2, health_interval_s=0.1)
        with ServingFleet(config) as fleet:
            results = []
            threads = [
                threading.Thread(
                    target=lambda t=f"G{4 + i}": results.append(
                        fleet.request(t, 100, worker=0)
                    ),
                    daemon=True,
                )
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            assert _wait(
                lambda: len(fleet._handles[0].inflight) >= 3, timeout_s=30.0
            )
            fleet.kill_worker(0)
            for thread in threads:
                thread.join(timeout=120.0)
            assert len(results) == 3
            # Zero lost, zero duplicated: every request answered exactly
            # once, by the surviving worker, after one failover retry.
            assert all(response.ok for response in results)
            assert all(response.worker == 1 for response in results)
            assert all(response.retries == 1 for response in results)
            stats = fleet.stats().to_dict()
            assert stats["router"]["restarts"] >= 1
            assert stats["router"]["failovers"] >= 1
            assert stats["router"]["retried"] >= 3
            # The dead worker was restarted and serves again.
            assert _wait(lambda: fleet.stats().alive == 2)
            revived = fleet.request("G1", 64, worker=0)
            assert revived.ok

    def test_failover_budget_exhaustion_reports_error(self):
        config = FleetConfig(workers=1, max_retries=0, health_interval_s=0.1)
        with ServingFleet(config) as fleet:
            results = []
            holder = threading.Thread(
                target=lambda: results.append(
                    fleet.request("G9", 100, worker=0)
                ),
                daemon=True,
            )
            holder.start()
            assert _wait(lambda: len(fleet._handles[0].inflight) >= 1)
            fleet.kill_worker(0)
            holder.join(timeout=60.0)
            # The pinned request died with the worker and max_retries=0
            # forbids re-dispatch; the caller gets an explicit error.
            assert len(results) == 1
            assert results[0].status == "error"
            assert "failover budget" in results[0].error
            assert _wait(
                lambda: fleet.stats().to_dict()["router"]["restarts"]
                >= 1
            )


class TestFleetThroughDriver:
    def test_load_driver_replays_through_fleet(self):
        trace = poisson_trace(
            ["G1", "G4"], num_requests=8, m_choices=(64,), seed=3
        )
        with ServingFleet(FleetConfig(workers=2, **FAST)) as fleet:
            with LoadDriver(fleet, concurrency=4) as driver:
                result = driver.replay(trace)
            report = result.report(
                name="fleet-test", fleet=fleet.stats().to_dict()
            )
        assert not result.errors
        sources = result.sources()
        assert sources.get("compiled", 0) >= 2
        payload = report.to_dict()
        assert payload["fleet"]["router"]["routed"] == 8
        assert "fleet" not in report.deterministic_dict()

    def test_driver_does_not_close_borrowed_fleet(self):
        trace = poisson_trace(["G1"], num_requests=2, m_choices=(64,), seed=0)
        with ServingFleet(FleetConfig(workers=1, **FAST)) as fleet:
            with LoadDriver(fleet) as driver:
                driver.replay(trace)
            # The driver exited; the borrowed fleet must still serve.
            response = fleet.serve("G1", m=64)
            assert response.ok


class TestDriverQueueDepth:
    def test_depth_sampled_at_issue_is_bounded_by_pool(self):
        # Regression test for the dispatch race: depths were sampled at
        # submit time, so a fast-draining pool recorded depths up to
        # len(trace) - 1.  Sampled at issue time, the depth can never
        # reach the pool size.
        trace = poisson_trace(
            ["G1"], num_requests=24, m_choices=(64,), seed=1
        )
        with LoadDriver(top_k=2, max_tile=64, concurrency=4) as driver:
            result = driver.replay(trace)
        assert not result.errors
        depths = [record.queue_depth for record in result.records]
        assert max(depths) <= 3  # concurrency - 1
        assert min(depths) == 0

    def test_serial_replay_depth_is_zero(self):
        trace = poisson_trace(["G1"], num_requests=4, m_choices=(64,), seed=2)
        with LoadDriver(top_k=2, max_tile=64) as driver:
            result = driver.replay(trace)
        assert {record.queue_depth for record in result.records} == {0}
