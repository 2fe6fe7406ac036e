"""The factorised pruning cascade against the per-candidate reference walk.

:meth:`Pruner.cascade` evaluates Rules 1-5 as masks over a space's axes;
:meth:`Pruner.prune` walks every candidate through the scalar rules and is
the reference.  For every space below the two must give the same survivors
in the same order, the same enumeration indices and the same Table III
counts.  The array kernel (:func:`score_cascade`) analyses each cell once
for all its gated modes; every row it prices must equal a fresh
:meth:`DataflowAnalyzer.analyze` of the same candidate.  A full-suite test
then compiles all 26 paper chains at the default configuration and compares
each outcome with the pinned benchmark reference.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FlashFuser
from repro.config import FuserConfig
from repro.dataflow.analyzer import VOLUME_LEVELS, DataflowAnalyzer
from repro.dsm_comm.primitives import CommPlan
from repro.errors import FusionError
from repro.hardware.spec import h100_spec
from repro.ir.builders import build_gated_ffn, build_standard_ffn
from repro.ir.workloads import get_chain_spec
from repro.obs import trace as obs_trace
from repro.obs.trace import tracer
from repro.runtime.cache import plan_cache_key
from repro.search.cost_model import CostModel
from repro.search.engine import SearchEngine, score_cascade
from repro.search.pruning import Pruner, PruningRule
from repro.search.space import SearchSpace

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference" / "cold_compile.json"


@pytest.fixture(scope="module")
def device():
    return h100_spec()


def _standard(m=128, n=256, k=128, l=128, name="cascade"):
    return build_standard_ffn(name, m=m, n=n, k=k, l=l)[1]


def _assert_cascade_matches_walk(device, chain, space, include_dsm=True):
    components = space.components(chain)
    cascade = Pruner(device, include_dsm=include_dsm).cascade(chain, components)
    reference = Pruner(device, include_dsm=include_dsm)
    expected = list(reference.prune(space.candidates(chain)))

    survivors = cascade.survivors()
    assert len(cascade) == len(survivors)
    assert [candidate for _, candidate in survivors] == expected
    assert cascade.stats.initial == reference.stats.initial == components.size
    assert cascade.stats.surviving == reference.stats.surviving
    for index, candidate in survivors:
        s, g, t, gated = components.decompose(index)
        assert components.schedules[s] == candidate.schedule
        assert components.geometries[g] == candidate.geometry
        assert components.tiles[t] == candidate.tile
        assert components.gated_modes[gated] == candidate.gated_sequential
    return cascade, reference


class TestCascadeMatchesWalk:
    def test_standard_chain(self, device):
        cascade, _ = _assert_cascade_matches_walk(
            device, _standard(), SearchSpace(device, max_tile=128)
        )
        assert len(cascade) > 0

    def test_gated_chain(self, device):
        _, gated = build_gated_ffn("cascade-gated", 128, 256, 128, 128)
        cascade, _ = _assert_cascade_matches_walk(
            device, gated, SearchSpace(device, max_tile=128)
        )
        modes = {candidate.gated_sequential for _, candidate in cascade.survivors()}
        assert modes == {False, True}

    def test_without_dsm(self, device):
        # The engine's own no-DSM space (one geometry) ...
        _assert_cascade_matches_walk(
            device,
            _standard(),
            SearchSpace(device, max_tile=128, include_clusters=False),
            include_dsm=False,
        )
        # ... and a clustered space, where Rule 2 rejects every multi-block
        # geometry and Rule 4 constrains a spatial N.
        _, reference = _assert_cascade_matches_walk(
            device, _standard(), SearchSpace(device, max_tile=128), include_dsm=False
        )
        surviving = reference.stats.surviving
        assert (
            surviving[PruningRule.CLUSTER_SIZE]
            < surviving[PruningRule.DIVISIBLE_TILES]
        )

    def test_unvalidated_geometries(self, device):
        # Extents large enough that over-sized clusters still divide them,
        # so Rule 2 (not Rule 1) is what rejects them.
        _, reference = _assert_cascade_matches_walk(
            device,
            _standard(m=1024, n=1024, k=1024, l=1024, name="cascade-wide"),
            SearchSpace(device, max_tile=128, prevalidate_geometries=False),
        )
        surviving = reference.stats.surviving
        assert (
            surviving[PruningRule.CLUSTER_SIZE]
            < surviving[PruningRule.DIVISIBLE_TILES]
        )

    def test_irregular_extent(self, device):
        # M=196 (im2col conv) is padded, not divided: Rule 1's waste cap.
        cascade, _ = _assert_cascade_matches_walk(
            device,
            _standard(m=196, name="cascade-196"),
            SearchSpace(device, max_tile=128),
        )
        assert len(cascade) > 0

    def test_paper_chain_small_tiles(self, device):
        _assert_cascade_matches_walk(
            device, get_chain_spec("G1"), SearchSpace(device, max_tile=64)
        )

    @settings(max_examples=10, deadline=None)
    @given(
        m=st.sampled_from([64, 96, 128, 196, 256]),
        n=st.sampled_from([64, 128, 256, 512]),
        k=st.sampled_from([64, 128, 256]),
        l=st.sampled_from([64, 128, 256]),
        gated=st.booleans(),
        include_dsm=st.booleans(),
    )
    def test_small_shapes(self, m, n, k, l, gated, include_dsm):
        device = h100_spec()
        if gated:
            chain = build_gated_ffn("cascade-draw", m, n, k, l)[1]
        else:
            chain = _standard(m=m, n=n, k=k, l=l, name="cascade-draw")
        _assert_cascade_matches_walk(
            device, chain, SearchSpace(device, max_tile=128), include_dsm=include_dsm
        )


def _score_every_survivor(device, chain, space, include_dsm=True):
    """Every survivor of ``chain`` through the array kernel."""
    cascade = Pruner(device, include_dsm=include_dsm).cascade(
        chain, space.components(chain)
    )
    analyzer = DataflowAnalyzer(device, include_dsm=include_dsm)
    scores = score_cascade(cascade, analyzer, CostModel(device))
    assert len(scores) == len(cascade)
    return cascade, scores


def _assert_rows_match_fresh(device, chain, space, include_dsm=True):
    """Each row's volumes, feasibility and cost equal a fresh analysis."""
    cascade, scores = _score_every_survivor(device, chain, space, include_dsm)
    fresh = DataflowAnalyzer(device, include_dsm=include_dsm)
    model = CostModel(device)
    volumes = scores.analysis.volumes.reshape(len(scores), len(VOLUME_LEVELS))
    for row, (_, candidate) in enumerate(cascade.survivors()):
        expected = fresh.analyze(
            candidate.chain,
            candidate.schedule,
            candidate.tile,
            candidate.geometry,
            gated_sequential=candidate.gated_sequential,
        )
        assert volumes[row].tolist() == [
            expected.volumes.get(level, 0.0) for level in VOLUME_LEVELS
        ], candidate.label()
        assert bool(scores.feasible[row]) == expected.feasible
        assert float(scores.cost[row]) == model.evaluate(expected)


class TestCellReuse:
    def test_every_gated_suite_survivor_matches_fresh_analysis(self, device):
        small = SearchSpace(device, max_tile=64)
        for workload in ("S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8"):
            _assert_rows_match_fresh(device, get_chain_spec(workload), small)

    @settings(max_examples=8, deadline=None)
    @given(
        m=st.sampled_from([64, 128, 256]),
        n=st.sampled_from([128, 256, 512]),
        k=st.sampled_from([64, 128, 256]),
        l=st.sampled_from([64, 128, 256]),
        include_dsm=st.booleans(),
    )
    def test_drawn_gated_chain_matches_fresh_analysis(self, m, n, k, l, include_dsm):
        device = h100_spec()
        chain = build_gated_ffn("reuse-draw", m, n, k, l)[1]
        _assert_rows_match_fresh(
            device, chain, SearchSpace(device, max_tile=128), include_dsm=include_dsm
        )

    def test_gated_modes_share_one_core(self, device, monkeypatch):
        # One analysis row per cell serves both gated modes, and the
        # dsm_comm plan is built once per distinct (geometry,
        # clusters_per_output, gated mode), not once per row.
        keys = []
        build = CommPlan.build.__func__

        def counting(
            cls, chain, geometry, clusters_per_output=1, gated_sequential=False
        ):
            keys.append((geometry, clusters_per_output, gated_sequential))
            return build(cls, chain, geometry, clusters_per_output, gated_sequential)

        monkeypatch.setattr(CommPlan, "build", classmethod(counting))
        cascade, scores = _score_every_survivor(
            device, get_chain_spec("S6"), SearchSpace(device, max_tile=64)
        )
        assert len(scores.analysis.footprint_bytes) == len(cascade.cells)
        assert len(scores) == 2 * len(cascade.cells)
        geometries = cascade.components.geometries
        distinct = {
            (geometries[g], int(cpo), mode)
            for (_, g, _), cpo in zip(
                cascade.cells.tolist(), scores.analysis.clusters_per_output
            )
            for mode in (False, True)
        }
        assert len(keys) == len(set(keys)) == len(distinct) < len(scores)


class TestSearchCounters:
    def test_counts_cover_the_whole_space(self, device):
        chain = get_chain_spec("G1")
        space = SearchSpace(device, max_tile=64)
        result = SearchEngine(device, top_k=3, space=space).search(chain)
        assert result.candidates_enumerated == result.pruning_stats.initial == 5740
        assert set(result.pruning_stats.surviving) == set(PruningRule)
        final = result.pruning_stats.surviving[PruningRule.MEMORY_CAPACITY]
        assert result.candidates_analyzed == final

    def test_phases_keep_their_keys(self, device):
        result = SearchEngine(
            device, top_k=3, space=SearchSpace(device, max_tile=128)
        ).search(_standard(name="cascade-phases"))
        phases = result.phase_times_us
        assert set(phases) == {"enumerate_prune", "analyze", "rank", "profile"}
        assert phases["enumerate_prune"] > 0.0
        assert sum(phases.values()) <= result.search_time_s * 1e6

    def test_prune_span_carries_rule_counts_and_times(self, device, monkeypatch):
        monkeypatch.delenv(obs_trace.ENV_VAR, raising=False)
        obs_trace.enable()
        try:
            tracer().clear()
            result = SearchEngine(
                device, top_k=3, space=SearchSpace(device, max_tile=128)
            ).search(_standard(name="cascade-span"))
            spans = [s for s in tracer().spans() if s["name"] == "search.prune"]
        finally:
            obs_trace.disable()
            monkeypatch.undo()
            obs_trace.reset()
            tracer().clear()
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["initial"] == result.pruning_stats.initial
        for rule in PruningRule:
            assert attrs[rule.value] == result.pruning_stats.surviving[rule]
            assert attrs[f"{rule.value}_us"] >= 0.0


def _schedule(schedule):
    return {"spatial": sorted(schedule.spatial), "temporal": list(schedule.temporal)}


def _record(compiler, workload, kernel):
    """The outcome fields ``cold_compile.json`` pins for one chain."""
    chain = get_chain_spec(workload)
    key = plan_cache_key(chain, compiler.device, compiler.config.cache_key_fields())
    if kernel is None:
        return {"outcome": "FusionError", "cache_key": key}
    search = kernel.search
    plan = kernel.plan
    return {
        "outcome": "ok",
        "cache_key": key,
        "tile": plan.tile.as_dict(),
        "geometry": list(plan.geometry.as_tuple()),
        "schedule": _schedule(plan.schedule),
        "top_k": [
            [
                ranked.candidate.tile.as_dict(),
                list(ranked.candidate.geometry.as_tuple()),
                _schedule(ranked.candidate.schedule),
                bool(ranked.candidate.gated_sequential),
            ]
            for ranked in search.top_k
        ],
        "pruning": {
            "initial": search.pruning_stats.initial,
            **{
                rule.value: count
                for rule, count in search.pruning_stats.surviving.items()
            },
        },
        "enumerated": search.candidates_enumerated,
        "analyzed": search.candidates_analyzed,
        "time_us": kernel.time_us,
    }


def test_full_suite_matches_pinned_reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)["chains"]
    assert len(reference) == 26
    with FlashFuser(FuserConfig()) as compiler:
        for workload in sorted(reference):
            try:
                kernel = compiler.compile_workload(workload)
            except FusionError:
                kernel = None
            assert _record(compiler, workload, kernel) == reference[workload], workload
