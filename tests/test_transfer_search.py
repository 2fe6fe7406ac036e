"""Transfer search: admissibility, equivalence, provenance.

Two contracts are pinned here.  First, the candidate lower bound is
admissible — it never exceeds the analysed cost — so the best-first
skipping of :func:`~repro.search.engine.analyze_and_rank` (the rule the
transfer search ranks its neighborhood with) preserves the entire top-K,
not just the winner.  Second, an accepted transfer search is provably within
``TRANSFER_BOUND`` of the full enumeration's winner, and its provenance
(``mode="transfer"``, ``compiled:transfer`` serving source, search-effort
counters) surfaces through the API, stats and perf-report layers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CompileRequest, FlashFuser
from repro.bench.driver import RequestRecord
from repro.bench.report import PerfReport, compare
from repro.hardware.spec import h100_spec
from repro.ir.builders import build_gated_ffn, build_standard_ffn
from repro.runtime.stats import ServingStats
from repro.search.cost_model import CostModel
from repro.search.engine import SearchEngine, analyze_and_rank
from repro.search.incremental import (
    TRANSFER_BOUND,
    CandidateLowerBound,
    ShapeIndex,
    TransferSearch,
    TransferSeed,
    shape_distance,
    shape_family_key,
)
from repro.search.pruning import Pruner
from repro.search.space import SearchSpace


def _chain(m=64, n=256, k=128, l=128, name="xfer-chain"):
    _, spec = build_standard_ffn(name, m=m, n=n, k=k, l=l)
    return spec


def _gated(m=64, n=256, k=128, l=128, name="xfer-gated"):
    _, spec = build_gated_ffn(name, m=m, n=n, k=k, l=l)
    return spec


@pytest.fixture(scope="module")
def device():
    return h100_spec()


def _engine(device, **kwargs):
    kwargs.setdefault("space", SearchSpace(device, max_tile=64))
    kwargs.setdefault("top_k", 5)
    return SearchEngine(device, **kwargs)


def _rank(device, chain, gated):
    """Rank ``chain``'s survivors, best-first with bound skipping if ``gated``.

    The survivors run in ``(lower bound, enumeration index)`` order, as in
    :class:`TransferSearch`; without gating every survivor is analysed.
    """
    engine = _engine(device)
    pruner = Pruner(device, include_dsm=engine.include_dsm)
    survivors = pruner.cascade(chain, engine.space.components(chain)).survivors()
    bounds = CandidateLowerBound(device, engine.cost_model)
    bound = {
        index: bounds.lower_bound(chain, candidate) for index, candidate in survivors
    }
    outcome = analyze_and_rank(
        sorted(survivors, key=lambda pair: (bound[pair[0]], pair[0])),
        engine.analyzer,
        engine.cost_model,
        keep=engine.top_k,
        lower_bound=(lambda index, _candidate: bound[index]) if gated else None,
    )
    return outcome, len(survivors)


def _assert_same_plans(ours, theirs):
    assert [plan[:3] for plan in ours.plans] == [plan[:3] for plan in theirs.plans]


def _assert_same_search(ours, theirs):
    assert ours.candidates_enumerated == theirs.candidates_enumerated
    assert len(ours.top_k) == len(theirs.top_k)
    for a, b in zip(ours.top_k, theirs.top_k):
        assert a.candidate == b.candidate
        assert a.predicted_cost_us == b.predicted_cost_us
    assert ours.succeeded == theirs.succeeded
    if ours.succeeded:
        assert ours.best.candidate == theirs.best.candidate
        assert ours.best.predicted_cost_us == theirs.best.predicted_cost_us


class TestLowerBound:
    def test_bound_is_admissible_for_every_candidate(self, device):
        chain = _chain()
        space = SearchSpace(device, max_tile=64)
        engine = _engine(device)
        bounds = CandidateLowerBound(device, engine.cost_model)
        pruner = Pruner(device, include_dsm=engine.include_dsm)
        checked = 0
        for candidate in pruner.prune(space.candidates(chain)):
            result = engine.analyzer.analyze(
                chain,
                candidate.schedule,
                candidate.tile,
                candidate.geometry,
                gated_sequential=candidate.gated_sequential,
            )
            if not result.feasible:
                continue
            cost = engine.cost_model.evaluate(result)
            assert bounds.lower_bound(chain, candidate) <= cost
            checked += 1
        assert checked > 0

    def test_chain_bound_undercuts_the_winner(self, device):
        chain = _chain()
        engine = _engine(device)
        result = engine.search(chain)
        bounds = CandidateLowerBound(device, engine.cost_model)
        assert bounds.chain_lower_bound(chain) <= result.best.predicted_cost_us

    def test_lb_gating_preserves_the_entire_topk(self, device):
        for chain in (_chain(), _gated(), _chain(m=128, n=512)):
            plain, survivors = _rank(device, chain, gated=False)
            gated, _ = _rank(device, chain, gated=True)
            _assert_same_plans(plain, gated)
            assert plain.analyzed == survivors and plain.skipped == 0
            assert gated.skipped > 0
            assert gated.analyzed + gated.skipped == survivors

    @settings(max_examples=8, deadline=None)
    @given(
        m=st.sampled_from([32, 64, 96]),
        n=st.sampled_from([128, 256]),
        k=st.sampled_from([64, 128]),
    )
    def test_lb_gating_equivalence_property(self, m, n, k):
        device = h100_spec()
        chain = _chain(m=m, n=n, k=k, name=f"lb-{m}-{n}-{k}")
        plain, _ = _rank(device, chain, gated=False)
        gated, _ = _rank(device, chain, gated=True)
        _assert_same_plans(plain, gated)


class TestTransferSearch:
    def _seed_from(self, result):
        best = result.best
        return TransferSeed(
            schedule=best.candidate.schedule,
            tile=best.candidate.tile,
            geometry=best.candidate.geometry,
        )

    def test_accepted_transfer_is_within_bound_of_full_winner(self, device):
        engine = _engine(device)
        small = engine.search(_chain(m=64))
        target = _chain(m=256)
        full = _engine(device).search(target)
        transferred = engine.search(target, transfer_seed=self._seed_from(small))
        assert transferred.succeeded
        if transferred.mode == "transfer":
            bounds = CandidateLowerBound(device, engine.cost_model)
            chain_lb = bounds.chain_lower_bound(target)
            cost = transferred.best.predicted_cost_us
            assert cost <= TRANSFER_BOUND * chain_lb
            # chain_lb also undercuts the full winner, so acceptance puts
            # the transferred plan within the bound of optimal.
            assert cost <= TRANSFER_BOUND * full.best.predicted_cost_us
            assert transferred.candidates_analyzed < full.candidates_analyzed
        else:
            _assert_same_search(transferred, full)

    def test_transfer_mode_is_reported(self, device):
        engine = _engine(device)
        small = engine.search(_chain(m=64))
        transferred = engine.search(
            _chain(m=256), transfer_seed=self._seed_from(small)
        )
        assert transferred.mode == "transfer"
        assert transferred.summary().to_dict()["mode"] == "transfer"

    def test_foreign_seed_schedule_falls_back(self, device):
        engine = _engine(device)
        result = engine.search(_chain())
        seed = self._seed_from(result)
        space = SearchSpace(device, max_tile=64)
        transfer = TransferSearch(
            device, space=space, cost_model=CostModel(device), top_k=5
        )
        foreign = TransferSeed(
            schedule=seed.schedule,
            tile=type(seed.tile)(
                block_m=512, block_n=512, block_k=512, block_l=512
            ),
            geometry=seed.geometry,
        )
        # A seed whose tiles lie outside the space's neighborhood yields no
        # candidates; the caller must fall back to full enumeration.
        assert transfer.neighborhood(_chain(), foreign).size == 0 or (
            transfer.search(_chain(), foreign) is None
        )

    @settings(max_examples=6, deadline=None)
    @given(
        m_seed=st.sampled_from([32, 64]),
        m_target=st.sampled_from([128, 256]),
    )
    def test_transfer_cost_bound_property(self, m_seed, m_target):
        device = h100_spec()
        engine = _engine(device)
        small = engine.search(_chain(m=m_seed, name=f"tp-{m_seed}"))
        target = _chain(m=m_target, name=f"tp-{m_seed}")
        transferred = engine.search(
            target, transfer_seed=self._seed_from(small)
        )
        assert transferred.succeeded
        if transferred.mode == "transfer":
            bounds = CandidateLowerBound(device, engine.cost_model)
            assert (
                transferred.best.predicted_cost_us
                <= TRANSFER_BOUND * bounds.chain_lower_bound(target)
            )

    @settings(max_examples=6, deadline=None)
    @given(m=st.sampled_from([32, 64, 128]))
    def test_transfer_off_reproduces_serial_plans(self, m):
        device = h100_spec()
        chain = _chain(m=m, name=f"off-{m}")
        serial = _engine(device).search(chain)
        with FlashFuser(
            device="h100", top_k=5, max_tile=64, transfer=False
        ) as fuser:
            response = fuser.compile_request(CompileRequest(chain=chain))
        assert response.kernel.search.mode == "exact"
        assert (
            response.kernel.search.best.candidate == serial.best.candidate
        )
        assert (
            response.kernel.search.best.predicted_cost_us
            == serial.best.predicted_cost_us
        )


class TestShapeIndex:
    def test_nearest_prefers_log_distance_then_smaller_shape(self):
        index = ShapeIndex()
        index.register("fam", (64, 256, 128, 128), "small")
        index.register("fam", (512, 256, 128, 128), "large")
        assert index.nearest("fam", (128, 256, 128, 128)) == "small"
        assert index.nearest("fam", (400, 256, 128, 128)) == "large"
        # Equidistant: (128,...) is 1.0 from both 64 and 256; the smaller
        # shape tuple wins deterministically.
        index.register("fam", (256, 256, 128, 128), "mid")
        assert index.nearest("fam", (128, 256, 128, 128)) == "small"

    def test_families_are_isolated_and_bounded(self):
        index = ShapeIndex(max_entries_per_family=2)
        assert index.nearest("missing", (1, 1, 1, 1)) is None
        index.register("a", (64, 64, 64, 1), "a0")
        index.register("b", (64, 64, 64, 1), "b0")
        assert index.nearest("a", (64, 64, 64, 1)) == "a0"
        index.register("a", (128, 64, 64, 1), "a1")
        index.register("a", (256, 64, 64, 1), "a2")  # evicts the LRU a0
        assert len(index) == 3
        assert index.nearest("a", (64, 64, 64, 1)) == "a1"

    def test_family_key_separates_kinds_and_knobs(self, device):
        standard, gated = _chain(), _gated()
        knobs = {"top_k": 5, "max_tile": 64}
        assert shape_family_key(standard, device, knobs) == shape_family_key(
            _chain(m=512), device, knobs
        )
        assert shape_family_key(standard, device, knobs) != shape_family_key(
            gated, device, knobs
        )
        assert shape_family_key(standard, device, knobs) != shape_family_key(
            standard, device, {"top_k": 11, "max_tile": 64}
        )

    def test_shape_distance_is_symmetric_log_scale(self):
        assert shape_distance((64, 1, 1, 1), (256, 1, 1, 1)) == 2.0
        assert shape_distance((256, 1, 1, 1), (64, 1, 1, 1)) == 2.0
        assert shape_distance((8, 8, 8, 8), (8, 8, 8, 8)) == 0.0


class TestProvenance:
    def test_compile_provenance_reports_transfer_mode(self):
        chains = [_chain(m=64, name="prov"), _chain(m=256, name="prov")]
        with FlashFuser(
            device="h100", top_k=5, max_tile=64, transfer=True
        ) as fuser:
            cold = fuser.compile_request(CompileRequest(chain=chains[0]))
            warm = fuser.compile_request(CompileRequest(chain=chains[1]))
        assert cold.provenance()["mode"] == "exact"
        assert warm.provenance()["mode"] == "transfer"
        assert warm.provenance()["transfer"] is True
        assert (
            warm.kernel.search.candidates_analyzed
            < cold.kernel.search.candidates_analyzed
        )

    def test_stats_count_transfer_as_a_miss(self):
        stats = ServingStats()
        stats.record_request("G1", ServingStats.COMPILED, 900.0)
        stats.record_request("G1", ServingStats.TRANSFER, 90.0)
        stats.record_request("G1", "table", 10.0)
        assert stats.misses == 2
        assert stats.hits == 1
        assert ServingStats.is_compile_source(ServingStats.TRANSFER)
        assert not ServingStats.is_compile_source("cache:memory")


def _record(index, phase, wall_us, source, counters=None):
    return RequestRecord(
        index=index,
        phase=phase,
        kind="kernel",
        target="G1",
        m=64,
        arrival_s=0.0,
        queue_depth=0,
        wall_us=wall_us,
        source=source,
        search_counters=counters,
    )


class TestReportGates:
    def _report(self, name, cold_us, counters):
        records = [
            _record(0, "cold", cold_us, "compiled:transfer", counters),
            _record(1, "warm", 30.0, "table"),
        ]
        return PerfReport.from_records(records, name=name)

    def test_transfer_source_counts_as_compile(self):
        report = self._report(
            "r", 900.0, {"candidates_enumerated": 10, "candidates_analyzed": 4}
        )
        payload = report.to_dict()
        assert payload["cache"]["misses"] == 1
        assert payload["counts"]["search"]["candidates_enumerated"] == 10
        assert payload["phases"]["cold"]["search"]["candidates_analyzed"] == 4
        # The search block survives the deterministic view (it counts
        # candidates, not wall clock), unlike the latency blocks.
        deterministic = report.deterministic_dict()
        assert deterministic["counts"]["search"]["candidates_enumerated"] == 10

    def test_candidate_counters_gate_exactly(self):
        base = self._report(
            "base", 900.0, {"candidates_enumerated": 10, "candidates_analyzed": 4}
        )
        same = self._report(
            "same", 2000.0, {"candidates_enumerated": 10, "candidates_analyzed": 4}
        )
        worse = self._report(
            "worse", 900.0, {"candidates_enumerated": 11, "candidates_analyzed": 4}
        )
        assert compare(base, same).regressions() == []
        problems = compare(base, worse).regressions()
        assert any("candidates_enumerated" in problem for problem in problems)

    def test_counter_gate_skips_pre_search_baselines(self):
        old_payload = self._report(
            "old", 900.0, {"candidates_enumerated": 10}
        ).to_dict()
        del old_payload["counts"]["search"]
        old = PerfReport.from_dict(old_payload)
        new = self._report(
            "new", 900.0, {"candidates_enumerated": 999}
        )
        delta = compare(old, new)
        assert delta.search_delta is None
        assert delta.regressions() == []

    def test_cold_p50_gate_is_opt_in(self):
        base = self._report("base", 100.0, None)
        slow = self._report("slow", 1000.0, None)
        delta = compare(base, slow)
        assert delta.cold_p50_ratio == pytest.approx(10.0)
        assert delta.regressions() == []  # timing gates stay opt-in
        problems = delta.regressions(max_cold_p50_ratio=3.0)
        assert any("cold-phase p50" in problem for problem in problems)
        assert delta.regressions(max_cold_p50_ratio=20.0) == []
