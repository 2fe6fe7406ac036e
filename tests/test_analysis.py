"""Tests for the static verification layer (:mod:`repro.analysis`).

Covers the three tools — the plan verifier wired into ``PlanCache`` disk
loads, the repo-invariant linter, and the lock-order race detector — plus
the cache-stats schema they report through and a 16-thread serving stress
run under the detector.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import locks
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.lint import (
    PLAN_NEUTRAL_CONFIG_FIELDS,
    Linter,
    parse_config_fields,
    run_repo_lint,
)
from repro.analysis.locks import (
    LockOrderError,
    OrderedLock,
    lock_monitor,
    make_lock,
    require_held,
)
from repro.analysis.verify import (
    PlanVerifier,
    audit_cache_dir,
    spec_from_fingerprint,
    verify_model_plan,
)
from repro.api import CompileRequest, FlashFuser
from repro.errors import CacheEntryError, CorruptCacheEntry, StaleCacheEntry
from repro.graphs.server import ModelServer
from repro.ir.builders import build_standard_ffn
from repro.runtime.cache import CacheStats, PlanCache, PlanCacheEntry
from repro.runtime.server import KernelServer
from repro.runtime.stats import ServingStats


# --------------------------------------------------------------------- #
# Shared seeded cache: one real compiled entry on disk.
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def seeded(tmp_path_factory, h100):
    """A disk cache holding one genuinely compiled entry (read-only)."""
    directory = tmp_path_factory.mktemp("seed-cache")
    _, spec = build_standard_ffn("verify-seed", m=128, n=512, k=256, l=256)
    compiler = FlashFuser(device=h100, top_k=2, max_tile=64, cache=str(directory))
    kernel = compiler.compile(spec)
    (entry_path,) = sorted(directory.glob("*.json"))
    return SimpleNamespace(
        directory=directory,
        spec=spec,
        kernel=kernel,
        entry_path=entry_path,
        key=entry_path.stem,
    )


def _clone(seeded, tmp_path: Path) -> Path:
    """Copy the seeded cache directory so a test can tamper with it."""
    clone = tmp_path / "cache"
    clone.mkdir()
    for path in seeded.directory.glob("*.json"):
        shutil.copy(path, clone / path.name)
    return clone


# --------------------------------------------------------------------- #
# Typed entry parsing
# --------------------------------------------------------------------- #
class TestEntryParse:
    def test_corrupt_json(self):
        with pytest.raises(CorruptCacheEntry):
            PlanCacheEntry.parse("{truncated")

    def test_non_object_payload(self):
        with pytest.raises(CorruptCacheEntry):
            PlanCacheEntry.parse("[1, 2, 3]")

    def test_stale_version(self, seeded):
        payload = json.loads(seeded.entry_path.read_text())
        payload["version"] = 99
        with pytest.raises(StaleCacheEntry):
            PlanCacheEntry.parse(json.dumps(payload))

    def test_missing_field(self, seeded):
        payload = json.loads(seeded.entry_path.read_text())
        del payload["plan"]
        with pytest.raises(CorruptCacheEntry):
            PlanCacheEntry.parse(json.dumps(payload))

    def test_non_dict_section(self, seeded):
        payload = json.loads(seeded.entry_path.read_text())
        payload["report"] = "nope"
        with pytest.raises(CorruptCacheEntry):
            PlanCacheEntry.parse(json.dumps(payload))

    def test_typed_errors_share_base(self):
        assert issubclass(StaleCacheEntry, CacheEntryError)
        assert issubclass(CorruptCacheEntry, CacheEntryError)

    def test_from_json_returns_none(self):
        assert PlanCacheEntry.from_json("{truncated") is None

    def test_roundtrip_keeps_provenance(self, seeded):
        entry = PlanCacheEntry.parse(seeded.entry_path.read_text())
        assert entry.device is not None
        assert entry.search_config is not None
        again = PlanCacheEntry.parse(entry.to_json())
        assert again.device == entry.device
        assert again.search_config == entry.search_config


class TestCacheStatsSchema:
    def test_pinned_key_order(self):
        assert list(CacheStats().to_dict()) == [
            "memory_hits",
            "disk_hits",
            "misses",
            "stores",
            "evictions",
            "stale_entries",
            "corrupt_entries",
            "rejected_entries",
            "io_errors",
            "hit_rate",
        ]

    def test_server_snapshot_surfaces_failure_counters(self, tmp_path):
        server = KernelServer(cache=str(tmp_path), m_bins=(128,))
        payload = server.snapshot()["cache"]
        for counter in ("stale_entries", "corrupt_entries",
                        "rejected_entries", "io_errors"):
            assert payload[counter] == 0


# --------------------------------------------------------------------- #
# Plan verifier
# --------------------------------------------------------------------- #
class TestPlanVerifier:
    def test_real_entry_verifies_clean(self, seeded):
        entry = PlanCacheEntry.parse(seeded.entry_path.read_text())
        assert PlanVerifier().verify_entry(entry, expected_key=seeded.key) == []

    def test_key_mismatch_detected(self, seeded):
        entry = PlanCacheEntry.parse(seeded.entry_path.read_text())
        found = PlanVerifier().verify_entry(entry, expected_key="0" * 64)
        assert [v.check for v in found] == ["identity.key_mismatch"]

    def test_fingerprint_roundtrip(self, h100):
        assert spec_from_fingerprint(h100.fingerprint()).fingerprint() == (
            h100.fingerprint()
        )

    def test_audit_clean_directory(self, seeded):
        report = audit_cache_dir(seeded.directory)
        assert report.clean
        assert report.counts == {"ok": 1, "stale": 0, "corrupt": 0, "rejected": 0}

    def test_overflowing_entry_rejected_then_recompiled(self, seeded, tmp_path, h100):
        clone = _clone(seeded, tmp_path)
        path = clone / seeded.entry_path.name
        payload = json.loads(path.read_text())
        good_plan = payload["plan"]
        payload["plan"] = dict(
            good_plan, tile={"m": 4096, "n": 4096, "k": 4096, "l": 4096}
        )
        path.write_text(json.dumps(payload))

        report = audit_cache_dir(clone)
        assert report.counts["rejected"] == 1
        assert any(
            v.check.startswith("legality.")
            for result in report.results
            for v in result.violations
        )

        # The serve path must reject the entry, count it, fall through to a
        # cold compile, and back-fill the same key with the good plan.
        server = KernelServer(
            cache=str(clone), m_bins=(128,), device=h100, top_k=2, max_tile=64
        )
        response = server.request(CompileRequest(chain=seeded.spec))
        assert ServingStats.is_compile_source(response.source)
        # Identical plan up to the server's binned chain name.
        recompiled = response.kernel.plan.to_dict()
        original = seeded.kernel.plan.to_dict()
        assert recompiled["chain"].pop("name") == "verify-seed_m128"
        assert original["chain"].pop("name") == "verify-seed"
        assert recompiled == original
        stats = server.cache.stats
        # The serve path probes the cache exactly once before compiling.
        assert stats.rejected_entries == 1
        assert stats.misses == 1
        assert stats.disk_hits == 0
        backfilled = json.loads(path.read_text())["plan"]
        backfilled["chain"].pop("name")
        good_plan["chain"].pop("name")
        assert backfilled == good_plan
        assert audit_cache_dir(clone).clean

    def test_corrupt_entry_counted(self, seeded, tmp_path):
        clone = _clone(seeded, tmp_path)
        (clone / seeded.entry_path.name).write_text("{torn write")
        cache = PlanCache(directory=clone)
        assert cache.get(seeded.key) is None
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.misses == 1

    def test_stale_entry_counted(self, seeded, tmp_path):
        clone = _clone(seeded, tmp_path)
        path = clone / seeded.entry_path.name
        payload = json.loads(path.read_text())
        payload["version"] = 0
        path.write_text(json.dumps(payload))
        cache = PlanCache(directory=clone)
        assert cache.get(seeded.key) is None
        assert cache.stats.stale_entries == 1

    def test_tampered_key_rejected(self, seeded, tmp_path):
        clone = _clone(seeded, tmp_path)
        path = clone / seeded.entry_path.name
        payload = json.loads(path.read_text())
        payload["key"] = "f" * 64
        path.write_text(json.dumps(payload))
        cache = PlanCache(directory=clone)
        assert cache.get(seeded.key) is None
        assert cache.stats.rejected_entries == 1

    def test_verification_can_be_disabled(self, seeded, tmp_path):
        clone = _clone(seeded, tmp_path)
        path = clone / seeded.entry_path.name
        payload = json.loads(path.read_text())
        payload["plan"] = dict(
            payload["plan"], tile={"m": 4096, "n": 4096, "k": 4096, "l": 4096}
        )
        path.write_text(json.dumps(payload))
        trusting = PlanCache(directory=clone, verify=False)
        assert trusting.get(seeded.key) is not None

    def test_read_io_error_counted(self, seeded, tmp_path, monkeypatch):
        clone = _clone(seeded, tmp_path)
        target = (clone / seeded.entry_path.name).resolve()
        real_read_text = Path.read_text

        def failing_read_text(self, *args, **kwargs):
            if self.resolve() == target:
                raise OSError("simulated disk failure")
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", failing_read_text)
        cache = PlanCache(directory=clone)
        assert cache.get(seeded.key) is None
        assert cache.stats.io_errors == 1

    def test_write_io_error_counted_not_raised(self, seeded, tmp_path, monkeypatch):
        entry = PlanCacheEntry.parse(seeded.entry_path.read_text())

        def failing_replace(src, dst):
            raise OSError("simulated full disk")

        monkeypatch.setattr(os, "replace", failing_replace)
        cache = PlanCache(directory=tmp_path / "wcache")
        cache.put(seeded.key, entry)
        assert cache.stats.io_errors == 1
        # Memory tier still serves: degraded, not broken.
        assert cache.get(seeded.key) is entry

    def test_verify_model_plan_invariants(self):
        good = SimpleNamespace(
            segments=[
                SimpleNamespace(anchor=0, operators=(0, 1), charged_us=1.0),
                SimpleNamespace(anchor=2, operators=(2,), charged_us=0.5),
            ]
        )
        assert verify_model_plan(good) == []
        bad = SimpleNamespace(
            segments=[
                SimpleNamespace(anchor=2, operators=(2, 3), charged_us=1.0),
                SimpleNamespace(anchor=0, operators=(3,), charged_us=-1.0),
            ]
        )
        checks = {v.check for v in verify_model_plan(bad)}
        assert checks == {
            "segments.order",
            "segments.overlap",
            "segments.negative_time",
        }


class TestAnalysisCli:
    def test_audit_clean_exits_zero(self, seeded, capsys):
        assert analysis_main(["audit", str(seeded.directory)]) == 0
        assert "1 entries — 1 ok" in capsys.readouterr().out

    def test_audit_corrupt_exits_nonzero(self, seeded, tmp_path, capsys):
        clone = _clone(seeded, tmp_path)
        (clone / seeded.entry_path.name).write_text("junk")
        assert analysis_main(["audit", str(clone)]) == 1
        assert "1 corrupt" in capsys.readouterr().out

    def test_audit_missing_directory(self, tmp_path, capsys):
        assert analysis_main(["audit", str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    def test_lint_repo_is_clean(self, capsys):
        assert analysis_main(["lint"]) == 0
        assert "lint: clean" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Repo-invariant linter
# --------------------------------------------------------------------- #
_RECORD_X = "def record(registry):\n    registry.counter('repro_x_total').inc()\n"


def _metric_tree(tmp_path, modules):
    """A ``src/repro`` tree with ``modules`` beside a one-row catalog."""
    root = tmp_path / "src" / "repro"
    root.mkdir(parents=True)
    (root / "config.py").write_text("class FuserConfig:\n    pass\n")
    for name, source in modules.items():
        (root / name).write_text(source)
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "OBSERVABILITY.md").write_text(
        "| Metric | Type |\n| --- | --- |\n| `repro_x_total` | counter |\n"
    )
    return root


class TestLinter:
    @pytest.fixture()
    def linter(self):
        return Linter(
            config_fields={"top_k", "max_tile", "cache", "log_level"},
            key_fields={"top_k", "max_tile"},
        )

    def test_key_drift_flagged(self, linter):
        source = "def pick(config):\n    return config.log_level\n"
        found = linter.lint_source(source, key_drift=True)
        assert [v.check for v in found] == ["cache-key-drift"]

    def test_key_and_neutral_fields_pass(self, linter):
        source = (
            "def pick(config):\n"
            "    return (config.top_k, config.max_tile, config.cache)\n"
        )
        assert linter.lint_source(source, key_drift=True) == []

    def test_key_drift_off_outside_plan_modules(self, linter):
        source = "def pick(config):\n    return config.log_level\n"
        assert linter.lint_source(source, key_drift=False) == []

    def test_lock_discipline_flagged(self, linter):
        source = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
            "    def racy(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "        self.count += 1\n"
        )
        found = linter.lint_source(source)
        assert [v.check for v in found] == ["lock-discipline"]
        assert "racy" in found[0].message

    def test_lock_discipline_clean_class(self, linter):
        source = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
        )
        assert linter.lint_source(source) == []

    def test_nondeterminism_flagged(self, linter):
        source = (
            "import random, time\n"
            "from datetime import datetime\n"
            "def jitter():\n"
            "    return time.time() + random.random(), datetime.now()\n"
        )
        found = linter.lint_source(source, deterministic=True)
        assert sorted(v.check for v in found) == ["nondeterminism"] * 3

    def test_seeded_random_passes(self, linter):
        source = (
            "import random\n"
            "def jitter(seed):\n"
            "    return random.Random(seed).random()\n"
        )
        assert linter.lint_source(source, deterministic=True) == []

    def test_nondeterminism_off_in_runtime_modules(self, linter):
        source = "import time\ndef now():\n    return time.time()\n"
        assert linter.lint_source(source, deterministic=False) == []

    def test_to_dict_spread_flagged(self, linter):
        source = (
            "class Stats:\n"
            "    def to_dict(self):\n"
            "        return {'a': 1, **self.extra}\n"
        )
        found = linter.lint_source(source)
        assert [v.check for v in found] == ["to-dict-order"]

    def test_to_dict_computed_and_duplicate_keys_flagged(self, linter):
        source = (
            "class Stats:\n"
            "    def snapshot(self):\n"
            "        return {self.name: 1, 'a': 2, 'a': 3}\n"
        )
        checks = [v.check for v in linter.lint_source(source)]
        assert checks == ["to-dict-order", "to-dict-order"]

    def test_silent_except_flagged_and_allowed(self, linter):
        bad = "def f():\n    try:\n        g()\n    except Exception:\n        pass\n"
        found = linter.lint_source(bad)
        assert [v.check for v in found] == ["silent-except"]
        allowed = bad.replace(
            "except Exception:", "except Exception:  # lint: allow[silent-except]"
        )
        assert linter.lint_source(allowed) == []

    def test_narrow_except_passes(self, linter):
        source = "def f():\n    try:\n        g()\n    except KeyError:\n        pass\n"
        assert linter.lint_source(source) == []

    def test_syntax_error_reported(self, linter):
        found = linter.lint_source("def broken(:\n")
        assert [v.check for v in found] == ["syntax"]

    def test_parse_config_fields_matches_runtime(self):
        import repro
        from repro.config import FuserConfig

        config_fields, key_fields = parse_config_fields(
            Path(repro.__file__).parent / "config.py"
        )
        assert key_fields == set(FuserConfig().cache_key_fields())
        # transfer_bound is the one key entry that is a fixed constant
        # (TRANSFER_BOUND), not a settable field.
        assert key_fields - config_fields == {"transfer_bound"}
        assert PLAN_NEUTRAL_CONFIG_FIELDS <= config_fields
        assert not (key_fields & PLAN_NEUTRAL_CONFIG_FIELDS)

    def test_repo_holds_its_own_invariants(self):
        assert run_repo_lint() == []

    def test_metric_names_clean_tree(self, tmp_path):
        root = _metric_tree(tmp_path, {"a.py": _RECORD_X})
        assert run_repo_lint(package_root=root) == []

    def test_metric_names_duplicate_site_flagged(self, tmp_path):
        root = _metric_tree(tmp_path, {"a.py": _RECORD_X, "b.py": _RECORD_X})
        found = run_repo_lint(package_root=root)
        assert [v.check for v in found] == ["metric-names"]
        assert found[0].path.endswith("b.py")
        assert "exactly one recording site" in found[0].message

    def test_metric_names_uncatalogued_name_flagged(self, tmp_path):
        source = _RECORD_X + "    registry.gauge('repro_y')\n"
        root = _metric_tree(tmp_path, {"a.py": source})
        found = run_repo_lint(package_root=root)
        assert [v.check for v in found] == ["metric-names"]
        assert "'repro_y' is missing from the catalog" in found[0].message

    def test_metric_names_catalog_row_without_site_flagged(self, tmp_path):
        root = _metric_tree(tmp_path, {"a.py": "X = 1\n"})
        found = run_repo_lint(package_root=root)
        assert [v.check for v in found] == ["metric-names"]
        assert found[0].path.endswith("OBSERVABILITY.md")
        assert "has no recording site" in found[0].message

    def test_stale_plan_neutral_exemption_flagged(self, tmp_path):
        root = _metric_tree(tmp_path, {"a.py": _RECORD_X})

        def declare(fields):
            body = "".join(f"    {name}: object = None\n" for name in sorted(fields))
            (root / "config.py").write_text("class FuserConfig:\n" + body)

        declare(PLAN_NEUTRAL_CONFIG_FIELDS)
        assert run_repo_lint(package_root=root) == []
        declare(PLAN_NEUTRAL_CONFIG_FIELDS - {"cache"})
        found = run_repo_lint(package_root=root)
        assert [v.check for v in found] == ["plan-neutral-fields"]
        assert found[0].path.endswith("config.py")
        assert "'cache'" in found[0].message

    def test_violation_rendering(self, linter):
        found = linter.lint_source(
            "def f(config):\n    return config.log_level\n",
            path="search/engine.py",
            key_drift=True,
        )
        assert str(found[0]).startswith("search/engine.py:2: [cache-key-drift]")


# --------------------------------------------------------------------- #
# Lock-order race detector
# --------------------------------------------------------------------- #
@pytest.fixture()
def instrumented():
    """Force instrumentation on, restoring the previous mode afterwards."""
    previous = locks._mode_override
    locks.enable()
    monitor = lock_monitor()
    monitor.reset()
    yield monitor
    monitor.reset()
    locks._mode_override = previous


class TestOrderedLock:
    def test_cycle_recorded(self, instrumented):
        a, b = OrderedLock("alpha"), OrderedLock("beta")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        violations = instrumented.violations()
        assert len(violations) == 1
        assert "cycle" in violations[0]
        with pytest.raises(LockOrderError):
            instrumented.assert_clean()

    def test_strict_mode_raises_at_acquisition(self, instrumented):
        locks.enable(strict=True)
        a, b = OrderedLock("alpha"), OrderedLock("beta")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError):
                a.acquire()

    def test_instances_do_not_alias_by_name(self, instrumented):
        # Two pairs of same-named locks acquired in opposite orders are
        # distinct instances — no cycle.
        a1, b1 = OrderedLock("stats"), OrderedLock("stats")
        a2, b2 = OrderedLock("stats"), OrderedLock("stats")
        with a1:
            with b1:
                pass
        with b2:
            with a2:
                pass
        assert instrumented.violations() == []

    def test_nonreentrant_reacquire_raises(self, instrumented):
        lock = OrderedLock("once")
        with lock:
            with pytest.raises(LockOrderError):
                lock.acquire()
        instrumented.reset()

    def test_reentrant_reacquire_allowed(self, instrumented):
        lock = OrderedLock("again", reentrant=True)
        with lock:
            with lock:
                assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()
        assert instrumented.violations() == []

    def test_require_held_records_miss(self, instrumented):
        lock = make_lock("guarded")
        assert isinstance(lock, OrderedLock)
        require_held(lock)
        assert any("unguarded" in v for v in instrumented.violations())
        instrumented.reset()
        with lock:
            require_held(lock)
        assert instrumented.violations() == []

    def test_make_lock_plain_when_off(self):
        previous = locks._mode_override
        locks._mode_override = locks.MODE_OFF
        try:
            lock = make_lock("plain")
            assert not isinstance(lock, OrderedLock)
            require_held(lock)  # must be a no-op on stdlib locks
            with lock:
                pass
        finally:
            locks._mode_override = previous

    def test_edges_and_counters(self, instrumented):
        a, b = OrderedLock("outer"), OrderedLock("inner")
        with a:
            with b:
                pass
        assert ("outer", "inner") in instrumented.edges()
        assert instrumented.acquisitions == 2
        assert instrumented.max_depth == 2

    def test_cross_thread_ordering(self, instrumented):
        a, b = OrderedLock("first"), OrderedLock("second")

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        t = threading.Thread(target=forward)
        t.start()
        t.join()
        t = threading.Thread(target=backward)
        t.start()
        t.join()
        assert any("cycle" in v for v in instrumented.violations())
        instrumented.reset()


# --------------------------------------------------------------------- #
# 16-thread serving stress under the detector
# --------------------------------------------------------------------- #
class TestConcurrencyStress:
    THREADS = 16
    SERVES_PER_THREAD = 4
    DIRECTS_PER_THREAD = 2

    def test_serving_stack_is_race_free(self, tmp_path, h100):
        previous = locks._mode_override
        locks.enable()
        monitor = lock_monitor()
        monitor.reset()
        try:
            server = KernelServer(
                cache=str(tmp_path / "cache"),
                m_bins=(64, 128),
                device=h100,
                top_k=2,
                max_tile=64,
            )
            models = ModelServer(server=server)
            models.register(
                "stress",
                lambda m: build_standard_ffn("stress", m=m, n=256, k=128, l=128)[0],
            )
            _, direct = build_standard_ffn("stress-direct", m=64, n=256, k=128, l=128)
            # One warm serve per bin so the stress loop measures steady
            # state and chains-per-serve is known.
            warm_64 = models.serve("stress", m=64)
            warm_128 = models.serve("stress", m=128)
            chains = len(warm_64.sources)
            assert chains == len(warm_128.sources) >= 1

            errors = []

            def worker(index: int) -> None:
                try:
                    for turn in range(self.SERVES_PER_THREAD):
                        m = 64 if (index + turn) % 2 else 128
                        models.serve("stress", m=m)
                    for _ in range(self.DIRECTS_PER_THREAD):
                        server.request(CompileRequest(chain=direct))
                except Exception as exc:  # pragma: no cover - fails below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(index,), name=f"stress-{index}")
                for index in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert errors == []
            assert monitor.violations() == []
            assert monitor.acquisitions > 0
            assert monitor.max_depth >= 2

            total_serves = 2 + self.THREADS * self.SERVES_PER_THREAD
            total_directs = self.THREADS * self.DIRECTS_PER_THREAD
            assert models.stats.requests == total_serves
            assert server.stats.requests == total_serves * chains + total_directs
            snapshot = models.snapshot()
            assert snapshot["models"]["requests"] == total_serves
            cache_stats = snapshot["kernels"]["cache"]
            assert cache_stats["corrupt_entries"] == 0
            assert cache_stats["rejected_entries"] == 0
        finally:
            monitor.reset()
            locks._mode_override = previous
