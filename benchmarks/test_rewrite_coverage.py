"""Benchmark: fusion coverage unlocked by graph canonicalization.

The graph-zoo entries (:data:`repro.ir.workloads.GRAPH_ZOO`) are the export
spellings of fusible blocks — interior reshapes, transposed weight layouts,
mirrored gating operands — that the raw extractor cannot see through.  This
benchmark sweeps the zoo with rewriting off and on, asserts the coverage
delta the rewrite layer exists for (every entry goes from zero fusible
chains to at least one, with real FLOP coverage), compiles each rewritten
graph end to end, and persists the delta in the standard
:class:`~repro.bench.report.PerfReport` schema under a ``rewrite`` block.
The committed ``BENCH_rewrite_coverage.json`` at the repo root is this
report's artifact — regenerate it by running the benchmark with
``BENCH_REPORT_DIR`` pointing at the checkout.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.api import FlashFuser
from repro.bench import PerfReport, RequestRecord
from repro.graphs import compile_graph, extract_chains
from repro.ir.workloads import get_zoo_graph, list_graph_zoo

#: Problem size of the sweep (batched token count / batch granularity).
M = 128


def _record(index, phase, entry, wall_s, source):
    return RequestRecord(
        index=index,
        phase=phase,
        kind="model",
        target=entry,
        m=M,
        arrival_s=0.0,
        queue_depth=0,
        wall_us=wall_s * 1e6,
        source=source,
    )


def test_rewrite_unlocks_zoo_coverage(bench_report_dir):
    entries = list_graph_zoo()
    records = []
    coverage = {}
    for index, entry in enumerate(entries):
        graph = get_zoo_graph(entry, m=M)
        off = extract_chains(graph)
        on = extract_chains(graph, rewrite=True)

        # The tentpole claim: export spellings that extract nothing today
        # compile to fused chains once canonicalized.
        assert off.num_chains == 0, entry
        assert on.num_chains >= 1, entry
        assert on.flops_coverage() > off.flops_coverage() == 0.0

        with FlashFuser(top_k=3, max_tile=128) as compiler:
            start = time.perf_counter()
            plan = compile_graph(graph, compiler=compiler)
            wall_s = time.perf_counter() - start
        assert len(plan.fused_segments) == on.num_chains
        assert plan.speedup_vs_unfused() >= 1.0
        records.append(_record(index, "rewrite_on", entry, wall_s, "compiled"))

        coverage[entry] = {
            "chains_off": off.num_chains,
            "chains_on": on.num_chains,
            "flops_coverage_off": off.flops_coverage(),
            "flops_coverage_on": round(on.flops_coverage(), 6),
            "fused_segments": len(plan.fused_segments),
            "rules_fired": on.rewrite.fired_counts(),
            "ops_eliminated": on.rewrite.ops_eliminated,
        }

    unlocked = sum(
        1
        for block in coverage.values()
        if block["chains_off"] == 0 and block["chains_on"] >= 1
    )
    assert unlocked >= 2  # the acceptance floor; the zoo currently has 3

    report = PerfReport.from_records(
        records,
        name="rewrite-coverage",
        config={"m": M, "top_k": 3, "max_tile": 128},
        rewrite={"unlocked": unlocked, "graphs": coverage},
    )
    payload = report.to_dict()
    assert payload["rewrite"]["unlocked"] == unlocked
    assert sorted(payload["rewrite"]["graphs"]) == sorted(entries)

    path = report.save(bench_report_dir / "BENCH_rewrite_coverage.json")
    assert PerfReport.load(path) == report


def test_committed_coverage_artifact_matches_current_behaviour():
    """The repo-root artifact must stay truthful as the rule set evolves."""
    committed = PerfReport.load(
        Path(__file__).resolve().parents[1] / "BENCH_rewrite_coverage.json"
    )
    block = committed.to_dict()["rewrite"]
    assert block["unlocked"] >= 2
    for entry in list_graph_zoo():
        on = extract_chains(get_zoo_graph(entry, m=M), rewrite=True)
        recorded = block["graphs"][entry]
        assert recorded["chains_off"] == 0
        assert recorded["chains_on"] == on.num_chains
        assert recorded["rules_fired"] == on.rewrite.fired_counts()
