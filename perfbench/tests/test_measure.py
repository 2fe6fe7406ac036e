"""Percentiles with sample counts, the geomean, SLO shares and memo misses."""

import math

import pytest

from perfbench import measure


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([7.0], 99) == 7.0
    assert measure.percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 0)


def test_summary_counts_samples_beyond_the_percentile():
    summary = measure.summarize([float(v) for v in range(1000)], 99.0)
    assert summary == {"value": 989.0, "samples": 1000, "beyond": 10}
    assert measure.samples_beyond(1000, 99.9) == 1


def test_supported_tail_needs_ten_samples_beyond():
    assert measure.supported_tail(10_000) == 99.9
    assert measure.supported_tail(1_000) == 99.0
    assert measure.supported_tail(999) == 95.0
    assert measure.supported_tail(20) == 50.0
    assert measure.supported_tail(5) is None


def test_geomean():
    assert measure.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert measure.geomean([5.0]) == pytest.approx(5.0)
    assert measure.geomean([1.0, 10.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        measure.geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        measure.geomean([])


def test_slo_ok_share_counts_failures_and_unsent_as_misses():
    latencies = [0.001, 0.004, None, 0.02, 0.005]
    # 0.001, 0.004 and 0.005 meet 5 ms; None failed; 0.02 is late.
    assert measure.slo_ok_share(latencies, 0.005, 5) == pytest.approx(3 / 5)
    # Two more were attempted but never answered.
    assert measure.slo_ok_share(latencies, 0.005, 7) == pytest.approx(3 / 7)
    with pytest.raises(ValueError):
        measure.slo_ok_share([], 0.005, 0)


def test_lru_miss_share():
    assert measure.lru_miss_share([], 4) == 0.0
    assert measure.lru_miss_share(["a", "a", "a", "a"], 4) == pytest.approx(0.25)
    # Capacity 2: a b c evicts a, so the second a misses again.
    assert measure.lru_miss_share(["a", "b", "c", "a"], 2) == pytest.approx(1.0)
    # A hit refreshes recency: a b a c keeps a, evicts b.
    assert measure.lru_miss_share(["a", "b", "a", "c", "a"], 2) == pytest.approx(3 / 5)


def test_host_stamp_reports_the_host():
    stamp = measure.host_stamp(10, 15)
    assert stamp["steal_ticks"] == 5
    assert stamp["nproc"] >= 1
    assert isinstance(stamp["python"], str)
    assert measure.host_stamp(None, 3)["steal_ticks"] is None
    ticks = measure.steal_ticks()
    assert ticks is None or (isinstance(ticks, int) and ticks >= 0)
    assert math.isfinite(float(stamp["nproc"]))
