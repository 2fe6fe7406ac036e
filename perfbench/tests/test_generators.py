"""Each workload's inputs come from its seed alone."""

from collections import Counter

from perfbench import cold_compile, fleet_mixed, model_serve


def test_cold_compile_suite_is_a_fixed_stratified_draw():
    suite = cold_compile.suite()
    assert suite == cold_compile.suite()
    assert suite[-1] == cold_compile.KEPT_UNFUSABLE
    families = Counter(workload[0] for workload in suite[:-1])
    assert families == {"G": 2, "S": 1, "C": 1}
    assert not set(suite[:-1]) & set(cold_compile.UNFUSABLE)
    first = cold_compile.generate(1, 15)
    assert first == cold_compile.generate(1, 15)
    assert first.chains == tuple(suite)
    assert cold_compile.generate(2, 15).check_seed == 2
    assert cold_compile.generate(1, 15).passes == 1
    assert cold_compile.generate(1, 60).passes == 3


def test_cold_compile_reference_covers_the_suite():
    reference = cold_compile.load_reference()
    for workload in cold_compile.suite():
        expected = "FusionError" if workload in cold_compile.UNFUSABLE else "ok"
        assert reference[workload]["outcome"] == expected


def test_model_serve_sequence_is_seeded():
    first = model_serve.generate(7, 2)
    assert first == model_serve.generate(7, 2)
    assert first != model_serve.generate(8, 2)
    requests = first.requests
    assert len(requests) == round(2 * model_serve.REQUESTS_PER_SECOND)
    # Models rotate, so per-source counts repeat exactly across seeds.
    assert [model for model, _ in requests[:8]] == list(model_serve.MODELS) * 2
    wide = sum(1 for _, m in requests if m not in model_serve.HOT_SIZES)
    assert 0.1 < wide / len(requests) < 0.25
    assert all(1 <= m <= 256 for _, m in requests)
    share = model_serve.memo_miss_share(requests)
    assert 0.1 < share < 0.25


def test_fleet_schedule_is_seeded_and_open_loop():
    first = fleet_mixed.generate(3, 10)
    assert first == fleet_mixed.generate(3, 10)
    assert first != fleet_mixed.generate(4, 10)
    schedule = first.schedule
    assert len(schedule) == round(10 * fleet_mixed.RATE_PER_S)
    dues = [due for due, _, _ in schedule]
    assert dues == sorted(dues) and dues[0] == 0.0 and dues[-1] < 10
    assert {m for _, _, m in schedule} <= set(fleet_mixed.HOT_SIZES)
    # Models first appear in catalog order, each inside its own window.
    first_seen = {}
    for due, model, _ in schedule:
        first_seen.setdefault(model, due)
    assert list(first_seen) == list(fleet_mixed.MODELS)
    window = fleet_mixed.ARRIVAL_SPAN * 10 / len(fleet_mixed.MODELS)
    for index, model in enumerate(fleet_mixed.MODELS[1:], start=1):
        assert index * window <= first_seen[model] < (index + 0.5) * window + 0.1
    assert fleet_mixed.bin_for(16) == 64 and fleet_mixed.bin_for(65) == 256
