"""Golden tests for the serving metrics store.

``ServingStats`` and ``CacheStats`` record straight into
:class:`~repro.obs.metrics.MetricsRegistry` samples and derive their
``to_dict()`` views from them.  The views are pinned contracts: the
literals below were captured from the earlier, separately stored
implementation, so a fixed request and plan-cache sequence must still
serialize to them key for key.  ``mean_us`` is compared with
``rel=1e-12``: the overall mean now sums per-source totals, which may
change the last bits of the float.
"""

from __future__ import annotations

import json

import pytest

from repro import FlashFuser
from repro.fleet.stats import FleetStats
from repro.ir.builders import build_standard_ffn
from repro.obs import metrics
from repro.runtime.cache import PlanCache
from repro.runtime.stats import ServingStats

WORKLOADS = ("G1", "G4", "S2", "C3")
SOURCES = ("table", "cache:memory", "cache:disk", "compiled", "compiled:transfer")


def _serving_sequence(stats, offset=0):
    """Fifty requests over every source, spanning five latency decades."""
    for i in range(50):
        workload = WORKLOADS[(i * 7 + offset) % len(WORKLOADS)]
        source = SOURCES[(i * 3 + offset) % len(SOURCES)]
        latency_us = 0.0 if i == 13 else round(1.9 ** (i % 17) + 0.37 * i, 6)
        stats.record_request(workload, source, latency_us)
    return stats


def _cache_sequence(directory, kernel):
    """Drive every ``CacheStats`` counter through a fixed get/store sequence."""
    PlanCache(directory=directory).store_kernel("a" * 64, kernel)
    cache = PlanCache(directory=directory, max_memory_entries=2)
    cache.get("a" * 64)                       # disk hit
    cache.get("a" * 64)                       # memory hit
    cache.lookup("a" * 64)                    # memory hit, then rehydrate
    cache.lookup("a" * 64)                    # memoised kernel: memory hit
    cache.get("b" * 64)                       # plain miss
    (directory / ("c" * 64 + ".json")).write_text("{torn", encoding="utf-8")
    cache.get("c" * 64)                       # corrupt
    (directory / ("d" * 64 + ".json")).write_text(json.dumps({"version": 0}))
    cache.get("d" * 64)                       # stale
    blob = (directory / ("a" * 64 + ".json")).read_text(encoding="utf-8")
    (directory / ("e" * 64 + ".json")).write_text(blob, encoding="utf-8")
    cache.get("e" * 64)                       # rejected: key disagreement
    (directory / ("f" * 64 + ".json")).mkdir()
    cache.get("f" * 64)                       # the read raises: io error
    entry = cache.get("a" * 64)
    for key in ("1" * 64, "2" * 64, "3" * 64):
        cache.put(key, entry, write_disk=False)   # two evictions
    return cache


def _assert_same(actual, expected, path="$"):
    """Equal values with equal key order; ``mean_us`` to ``rel=1e-12``."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert list(actual) == list(expected), path
        for key in expected:
            _assert_same(actual[key], expected[key], f"{path}.{key}")
    elif path.endswith(".mean_us"):
        assert actual == pytest.approx(expected, rel=1e-12), path
    else:
        assert type(actual) is type(expected) and actual == expected, path


@pytest.fixture(scope="module")
def golden_kernel():
    _, chain = build_standard_ffn("golden", m=64, n=128, k=64, l=64)
    with FlashFuser(top_k=1, max_tile=64) as compiler:
        return compiler.compile(chain)


class TestGoldenSchemas:
    def test_serving_stats(self):
        _assert_same(_serving_sequence(ServingStats()).to_dict(), SERVING_GOLDEN)
        _assert_same(
            _serving_sequence(ServingStats(), offset=1).to_dict(), MODELS_GOLDEN
        )

    def test_cache_stats(self, tmp_path, golden_kernel):
        cache = _cache_sequence(tmp_path, golden_kernel)
        _assert_same(cache.stats.to_dict(), CACHE_GOLDEN)
        assert (cache.stats.memory_hits, cache.stats.disk_hits) == (4, 1)

    def test_fleet_stats(self, tmp_path, golden_kernel):
        cache = _cache_sequence(tmp_path, golden_kernel).stats.to_dict()
        fleet = FleetStats(
            workers=2,
            alive=1,
            router={
                "queue_depth": {"1": 0, "0": 1},
                "routed": 50,
                "rejected": 1,
                "retried": 0,
                "failovers": 0,
                "restarts": 1,
                "dispatched": 3,
                "duplicates": 0,
                "inflight": 1,
            },
            serving=_serving_sequence(ServingStats()).to_dict(),
            models=_serving_sequence(ServingStats(), offset=1).to_dict(),
            per_worker={
                "0": {"worker": 0, "incarnation": 1, "compiles": 3, "cache": cache}
            },
        )
        _assert_same(
            fleet.to_dict(),
            {
                "workers": 2,
                "alive": 1,
                "router": {
                    "routed": 50,
                    "rejected": 1,
                    "retried": 0,
                    "failovers": 0,
                    "restarts": 1,
                    "dispatched": 3,
                    "duplicates": 0,
                    "inflight": 1,
                    "queue_depth": {"0": 1, "1": 0},
                },
                "serving": SERVING_GOLDEN,
                "models": MODELS_GOLDEN,
                "per_worker": {
                    "0": {
                        "worker": 0,
                        "incarnation": 1,
                        "compiles": 3,
                        "cache": CACHE_GOLDEN,
                    }
                },
            },
        )


class TestRecordOnce:
    def test_record_request_observes_one_histogram(self, monkeypatch):
        stats = ServingStats()
        stats.record_request("G1", "table", 5.0)  # creates the samples
        calls = []
        observe = metrics.Histogram.observe

        def counting(self, value):
            calls.append(value)
            observe(self, value)

        monkeypatch.setattr(metrics.Histogram, "observe", counting)
        stats.record_request("G1", "table", 7.0)
        stats.record_request("G4", "compiled", 900.0)  # new samples too
        assert calls == [7.0, 900.0]
        assert stats.requests == 3


# --------------------------------------------------------------------- #
# Literals captured from the earlier implementation (do not regenerate)
# --------------------------------------------------------------------- #
SERVING_GOLDEN = {'requests': 50,
                  'hits': 30,
                  'misses': 20,
                  'hit_rate': 0.6,
                  'by_source': {'cache:disk': 10,
                                'cache:memory': 10,
                                'compiled': 10,
                                'compiled:transfer': 10,
                                'table': 10},
                  'by_workload': {'C3': 13, 'G1': 13, 'G4': 12, 'S2': 12},
                  'latency_us': {'cache:disk': {'count': 10,
                                                'mean_us': 2655.0143395,
                                                'min_us': 10.64,
                                                'max_us': 15199.25703,
                                                'p50_us': 249.05358527674866,
                                                'p95_us': 13216.912558536133,
                                                'buckets': {'6': 3,
                                                            '8': 1,
                                                            '10': 1,
                                                            '13': 1,
                                                            '14': 1,
                                                            '17': 1,
                                                            '20': 1,
                                                            '21': 1}},
                                 'cache:memory': {'count': 10,
                                                  'mean_us': 2259.8949714999994,
                                                  'min_us': 4.35,
                                                  'max_us': 15192.96703,
                                                  'p50_us': 175.594321575479,
                                                  'p95_us': 11556.220608697004,
                                                  'buckets': {'4': 1,
                                                              '5': 1,
                                                              '7': 1,
                                                              '8': 1,
                                                              '10': 1,
                                                              '12': 1,
                                                              '14': 1,
                                                              '17': 1,
                                                              '19': 1,
                                                              '21': 1}},
                                 'compiled': {'count': 10,
                                              'mean_us': 4077.7038576000004,
                                              'min_us': 2.27,
                                              'max_us': 28850.061357,
                                              'p50_us': 278.2982448998044,
                                              'p95_us': 26395.89438044235,
                                              'buckets': {'2': 1,
                                                          '7': 2,
                                                          '9': 1,
                                                          '11': 1,
                                                          '13': 1,
                                                          '16': 1,
                                                          '17': 1,
                                                          '20': 1,
                                                          '23': 1}},
                                 'compiled:transfer': {'count': 10,
                                                       'mean_us': 3865.0011113,
                                                       'min_us': 0.0,
                                                       'max_us': 28856.351357,
                                                       'p50_us': 157.14218879948865,
                                                       'p95_us': 26395.89438044235,
                                                       'buckets': {'0': 1,
                                                                   '5': 2,
                                                                   '8': 1,
                                                                   '9': 1,
                                                                   '12': 1,
                                                                   '13': 1,
                                                                   '16': 1,
                                                                   '20': 1,
                                                                   '23': 1}},
                                 'table': {'count': 10,
                                           'mean_us': 2149.9086092,
                                           'min_us': 1.0,
                                           'max_us': 15186.67703,
                                           'p50_us': 157.14218879948865,
                                           'p95_us': 11556.220608697004,
                                           'buckets': {'0': 1,
                                                       '6': 2,
                                                       '8': 1,
                                                       '9': 1,
                                                       '12': 1,
                                                       '14': 1,
                                                       '16': 1,
                                                       '19': 1,
                                                       '21': 1}}},
                  'overall_latency_us': {'count': 50,
                                         'mean_us': 3001.50457782,
                                         'min_us': 0.0,
                                         'max_us': 28856.351357,
                                         'p50_us': 204.8389811985347,
                                         'p95_us': 15848.93192461114,
                                         'buckets': {'0': 2,
                                                     '2': 1,
                                                     '4': 1,
                                                     '5': 3,
                                                     '6': 5,
                                                     '7': 3,
                                                     '8': 4,
                                                     '9': 3,
                                                     '10': 2,
                                                     '11': 1,
                                                     '12': 3,
                                                     '13': 3,
                                                     '14': 3,
                                                     '16': 3,
                                                     '17': 3,
                                                     '19': 2,
                                                     '20': 3,
                                                     '21': 3,
                                                     '23': 2}}}

MODELS_GOLDEN = {'requests': 50,
                 'hits': 30,
                 'misses': 20,
                 'hit_rate': 0.6,
                 'by_source': {'cache:disk': 10,
                               'cache:memory': 10,
                               'compiled': 10,
                               'compiled:transfer': 10,
                               'table': 10},
                 'by_workload': {'C3': 12, 'G1': 13, 'G4': 13, 'S2': 12},
                 'latency_us': {'cache:disk': {'count': 10,
                                               'mean_us': 2259.8949714999994,
                                               'min_us': 4.35,
                                               'max_us': 15192.96703,
                                               'p50_us': 175.594321575479,
                                               'p95_us': 11556.220608697004,
                                               'buckets': {'4': 1,
                                                           '5': 1,
                                                           '7': 1,
                                                           '8': 1,
                                                           '10': 1,
                                                           '12': 1,
                                                           '14': 1,
                                                           '17': 1,
                                                           '19': 1,
                                                           '21': 1}},
                                'cache:memory': {'count': 10,
                                                 'mean_us': 2149.9086092,
                                                 'min_us': 1.0,
                                                 'max_us': 15186.67703,
                                                 'p50_us': 157.14218879948865,
                                                 'p95_us': 11556.220608697004,
                                                 'buckets': {'0': 1,
                                                             '6': 2,
                                                             '8': 1,
                                                             '9': 1,
                                                             '12': 1,
                                                             '14': 1,
                                                             '16': 1,
                                                             '19': 1,
                                                             '21': 1}},
                                'compiled': {'count': 10,
                                             'mean_us': 2655.0143395,
                                             'min_us': 10.64,
                                             'max_us': 15199.25703,
                                             'p50_us': 249.05358527674866,
                                             'p95_us': 13216.912558536133,
                                             'buckets': {'6': 3,
                                                         '8': 1,
                                                         '10': 1,
                                                         '13': 1,
                                                         '14': 1,
                                                         '17': 1,
                                                         '20': 1,
                                                         '21': 1}},
                                'compiled:transfer': {'count': 10,
                                                      'mean_us': 4077.7038576000004,
                                                      'min_us': 2.27,
                                                      'max_us': 28850.061357,
                                                      'p50_us': 278.2982448998044,
                                                      'p95_us': 26395.89438044235,
                                                      'buckets': {'2': 1,
                                                                  '7': 2,
                                                                  '9': 1,
                                                                  '11': 1,
                                                                  '13': 1,
                                                                  '16': 1,
                                                                  '17': 1,
                                                                  '20': 1,
                                                                  '23': 1}},
                                'table': {'count': 10,
                                          'mean_us': 3865.0011113,
                                          'min_us': 0.0,
                                          'max_us': 28856.351357,
                                          'p50_us': 157.14218879948865,
                                          'p95_us': 26395.89438044235,
                                          'buckets': {'0': 1,
                                                      '5': 2,
                                                      '8': 1,
                                                      '9': 1,
                                                      '12': 1,
                                                      '13': 1,
                                                      '16': 1,
                                                      '20': 1,
                                                      '23': 1}}},
                 'overall_latency_us': {'count': 50,
                                        'mean_us': 3001.50457782,
                                        'min_us': 0.0,
                                        'max_us': 28856.351357,
                                        'p50_us': 204.8389811985347,
                                        'p95_us': 15848.93192461114,
                                        'buckets': {'0': 2,
                                                    '2': 1,
                                                    '4': 1,
                                                    '5': 3,
                                                    '6': 5,
                                                    '7': 3,
                                                    '8': 4,
                                                    '9': 3,
                                                    '10': 2,
                                                    '11': 1,
                                                    '12': 3,
                                                    '13': 3,
                                                    '14': 3,
                                                    '16': 3,
                                                    '17': 3,
                                                    '19': 2,
                                                    '20': 3,
                                                    '21': 3,
                                                    '23': 2}}}

CACHE_GOLDEN = {'memory_hits': 4,
                'disk_hits': 1,
                'misses': 5,
                'stores': 3,
                'evictions': 2,
                'stale_entries': 1,
                'corrupt_entries': 1,
                'rejected_entries': 1,
                'io_errors': 1,
                'hit_rate': 0.5}
