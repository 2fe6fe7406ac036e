"""Per-layer metrics: the catalog, the wrapped entry points and the reduction.

Layers are named after the program's modules.  ``MOVES`` records, for each
per-layer metric, which end-to-end metric it should move and on which
workload; ``BENCHMARK.json`` lists the same metrics (a test keeps the two
in step).  Every workload reports every per-layer metric; a layer that does
no work in the benchmark's own process reads 0 there (fleet workers are
separate processes, so on ``fleet-mixed`` their work arrives through
``FleetResponse`` and ``FleetStats`` as the ``fleet.*`` metrics).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from perfbench import measure
from perfbench.spans import Span, Target, durations_us, layer_table

RULES = (
    "rule1_divisible_tiles",
    "rule2_cluster_size",
    "rule3_activation",
    "rule4_dependency",
    "rule5_memory_capacity",
)

SOURCES = (
    ("table", "table"),
    ("cache:memory", "cache_memory"),
    ("cache:disk", "cache_disk"),
    ("compiled", "compiled"),
    ("compiled:transfer", "compiled_transfer"),
)

_COMPILE = "ops_per_s and latency_ms on cold-compile; setup_s on model-serve"
_SERVE = "latency_ms and ops_per_s on model-serve"
_WIDE = "ops_per_s and serve.p99_us on model-serve (memo misses); ~0 on fleet-mixed"
_RESTART = "serve.restart_p50_ms on model-serve; slo_ok_share on fleet-mixed (writes)"
_FLEET = "latency_ms and slo_ok_share on fleet-mixed"

#: name -> (unit, better, which end-to-end metric it should move, where).
MOVES: Dict[str, Tuple[str, str, str]] = {
    "search.busy_ms": ("ms", "lower", _COMPILE),
    "search.enumerate_prune_ms": ("ms", "lower", _COMPILE),
    "search.analyze_ms": ("ms", "lower", _COMPILE),
    "search.profile_ms": ("ms", "lower", _COMPILE),
    "search.enumerated": ("count", "lower", _COMPILE),
    "search.analyzed": ("count", "lower", _COMPILE),
    "search.analyzed_share": ("share", "lower", _COMPILE),
    **{
        f"search.pruned.rule{index}": ("count", "higher", _COMPILE)
        for index in range(1, 6)
    },
    "search.transfer_accept_share": (
        "share",
        "higher",
        "setup_s on model-serve; slo_ok_share on fleet-mixed",
    ),
    "dataflow.analyze_calls": ("count", "lower", "ops_per_s on cold-compile"),
    "dataflow.analyze_ms": ("ms", "lower", "ops_per_s on cold-compile"),
    "cost_model.evaluate_ms": ("ms", "lower", "ops_per_s on cold-compile"),
    "sim.simulate_ms": (
        "ms",
        "lower",
        "ops_per_s on cold-compile; latency_ms on model-serve (residual pricing)",
    ),
    "codegen.lower_ms": ("ms", "lower", "ops_per_s on cold-compile"),
    "kernel_server.request_us": ("us", "lower", _SERVE),
    **{
        f"kernel_server.source.{label}": (
            "count",
            "higher" if label.startswith(("table", "cache")) else "lower",
            _SERVE,
        )
        for _, label in SOURCES
    },
    "cache.load_us.memory": ("us", "lower", _RESTART),
    "cache.load_us.disk": ("us", "lower", _RESTART),
    "cache.store_ms": ("ms", "lower", _RESTART),
    "cache.hit_share": ("share", "higher", _RESTART),
    "verify.entry_us": ("us", "lower", _RESTART),
    "graphs.extract_us": ("us", "lower", _WIDE),
    "graphs.rewrite_us": ("us", "lower", _WIDE),
    "graphs.assemble_us": ("us", "lower", _WIDE),
    "graphs.memo_miss_share": ("share", "lower", _WIDE),
    "serve.p99_us": ("us", "lower", "model-serve tail: the memo-miss path"),
    "serve.p99_samples": ("count", "higher", "sample count of serve.p99_us"),
    "serve.restart_p50_ms": ("ms", "lower", "model-serve restart over the disk cache"),
    "fleet.ipc_us": ("us", "lower", _FLEET),
    "fleet.worker_serve_us": ("us", "lower", _FLEET),
    "fleet.p99_us": ("us", "lower", _FLEET),
    "fleet.compiles_per_key": ("ratio", "lower", _FLEET),
    "fleet.rejected": ("count", "lower", _FLEET),
    "fleet.retries": ("count", "lower", _FLEET),
    "fleet.restarts": ("count", "lower", _FLEET),
    "gen.late_p99_ms": ("ms", "lower", "generator lateness (host noise, not the program)"),
    "trace.overhead_share": ("share", "lower", "cost of the traced pass over the untraced one"),
    "trace.spans": ("count", "lower", "spans the traced pass recorded"),
}

#: Layer name -> the public entry points wrapped under it.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "compile": ("repro.api:FlashFuser.compile_request",),
    "search": ("repro.search.engine:SearchEngine.search",),
    "dataflow": ("repro.dataflow.analyzer:DataflowAnalyzer.analyze",),
    "cost_model": ("repro.search.cost_model:CostModel.evaluate",),
    "sim": (
        "repro.sim.engine:PerformanceSimulator.simulate_plan",
        "repro.sim.engine:PerformanceSimulator.simulate_kernels",
    ),
    "codegen": (
        "repro.api:lower_plan",
        "repro.api:emit_cuda",
        "repro.runtime.cache:lower_plan",
        "repro.runtime.cache:emit_cuda",
    ),
    "kernel_server": ("repro.runtime.server:KernelServer.request",),
    "cache.get": ("repro.runtime.cache:PlanCache.get",),
    "cache.store": ("repro.runtime.cache:PlanCache.store_kernel",),
    "verify": ("repro.analysis.verify:PlanVerifier.verify_entry",),
    "graphs.extract": ("repro.graphs.server:extract_chains",),
    "graphs.rewrite": ("repro.graphs.extract:canonicalize",),
    "graphs.assemble": ("repro.graphs.server:assemble_plan",),
    "model_server": ("repro.graphs.server:ModelServer.serve",),
    "fleet": ("repro.fleet.router:ServingFleet.request",),
}

for _layer in LAYER_TARGETS:
    MOVES[f"layer.{_layer}.calls"] = ("count", "lower", "calls into the layer")
    MOVES[f"layer.{_layer}.busy_ms"] = ("ms", "lower", "time inside the layer")
    MOVES[f"layer.{_layer}.self_ms"] = ("ms", "lower", "time inside the layer, children excluded")


# --------------------------------------------------------------------- #
# Span attributes captured from public return values
# --------------------------------------------------------------------- #
def _search_after(_state, args, kwargs, result) -> Dict[str, object]:
    seeded = kwargs.get("transfer_seed", args[2] if len(args) > 2 else None)
    stats = result.pruning_stats
    by_rule = {rule.value: count for rule, count in stats.surviving.items()}
    surviving = [by_rule.get(rule) for rule in RULES]
    return {
        "seeded": seeded is not None,
        "mode": result.mode,
        "enumerated": result.candidates_enumerated,
        "analyzed": result.candidates_analyzed,
        "initial": stats.initial,
        "surviving": surviving,
        "phases": dict(result.phase_times_us or {}),
    }


def _cache_get_before(args, _kwargs) -> Tuple[int, int]:
    stats = args[0].stats
    return stats.memory_hits, stats.disk_hits


def _cache_get_after(state, args, _kwargs, _result) -> Dict[str, object]:
    stats = args[0].stats
    if stats.disk_hits > state[1]:
        return {"tier": "disk"}
    if stats.memory_hits > state[0]:
        return {"tier": "memory"}
    return {"tier": "miss"}


def _source_after(_state, _args, _kwargs, result) -> Dict[str, object]:
    return {"source": result.source}


_HOOKS = {
    "search": (None, _search_after),
    "cache.get": (_cache_get_before, _cache_get_after),
    "kernel_server": (None, _source_after),
}


def targets() -> List[Target]:
    """Every wrapped entry point, in catalog order."""
    result: List[Target] = []
    for layer, paths in LAYER_TARGETS.items():
        before, after = _HOOKS.get(layer, (None, None))
        for path in paths:
            result.append(Target(path, layer, before, after))
    return result


# --------------------------------------------------------------------- #
# Reduction
# --------------------------------------------------------------------- #
def _p50(values: Sequence[float]) -> float:
    return statistics.median(list(values)) if values else 0.0


def _pct(values: Sequence[float], q: float) -> float:
    return measure.percentile(values, q) if values else 0.0


def search_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Search counters and phase times summed over every traced search."""
    searches = [span.attrs for span in spans if span.name == "search" and "phases" in span.attrs]
    phases: Dict[str, float] = {}
    pruned = [0] * len(RULES)
    for attrs in searches:
        for phase, micros in attrs["phases"].items():
            phases[phase] = phases.get(phase, 0.0) + micros
        before = attrs["initial"]
        for index, after in enumerate(attrs["surviving"]):
            if after is None:
                continue
            pruned[index] += before - after
            before = after
    enumerated = sum(attrs["enumerated"] for attrs in searches)
    analyzed = sum(attrs["analyzed"] for attrs in searches)
    seeded = [attrs for attrs in searches if attrs["seeded"]]
    metrics = {
        "search.busy_ms": sum(phases.values()) / 1e3,
        "search.enumerate_prune_ms": phases.get("enumerate_prune", 0.0) / 1e3,
        "search.analyze_ms": phases.get("analyze", 0.0) / 1e3,
        "search.profile_ms": phases.get("profile", 0.0) / 1e3,
        "search.enumerated": enumerated,
        "search.analyzed": analyzed,
        "search.analyzed_share": analyzed / enumerated if enumerated else 0.0,
        "search.transfer_accept_share": (
            sum(1 for attrs in seeded if attrs["mode"] == "transfer") / len(seeded)
            if seeded
            else 0.0
        ),
    }
    for index, count in enumerate(pruned, start=1):
        metrics[f"search.pruned.rule{index}"] = count
    return metrics


def fleet_metrics(
    responses: Sequence[object],
    latency_from_due_us: Sequence[float],
    router: Mapping[str, object],
) -> Dict[str, float]:
    """Fleet metrics from ``FleetResponse`` values and ``FleetStats``."""
    ok = [response for response in responses if response.ok]
    keys = {(response.target, response.bin_m) for response in ok}
    compiles = sum(
        1 for response in ok if (response.source or "").startswith("compiled")
    )
    return {
        "fleet.ipc_us": _p50([r.latency_us - r.serve_us for r in ok]),
        "fleet.worker_serve_us": _p50([r.serve_us for r in ok]),
        "fleet.p99_us": _pct(latency_from_due_us, 99.0),
        "fleet.compiles_per_key": compiles / len(keys) if keys else 0.0,
        "fleet.rejected": int(router.get("rejected", 0)),
        "fleet.retries": int(router.get("retried", 0)),
        "fleet.restarts": int(router.get("restarts", 0)),
    }


def reduce(
    spans: Sequence[Span],
    *,
    cache_stats: Sequence[Mapping[str, object]] = (),
    memo_miss_share: float = 0.0,
    extra: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer is idle)."""
    metrics: Dict[str, float] = {name: 0.0 for name in MOVES}
    metrics.update(search_metrics(spans))
    table = layer_table(spans)
    for layer in LAYER_TARGETS:
        row = table.get(layer, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        metrics[f"layer.{layer}.calls"] = row["calls"]
        metrics[f"layer.{layer}.busy_ms"] = row["busy_ns"] / 1e6
        metrics[f"layer.{layer}.self_ms"] = row["self_ns"] / 1e6
    metrics["dataflow.analyze_calls"] = table.get("dataflow", {}).get("calls", 0)
    metrics["dataflow.analyze_ms"] = metrics["layer.dataflow.busy_ms"]
    metrics["cost_model.evaluate_ms"] = metrics["layer.cost_model.busy_ms"]
    metrics["sim.simulate_ms"] = metrics["layer.sim.busy_ms"]
    metrics["codegen.lower_ms"] = metrics["layer.codegen.busy_ms"]
    metrics["kernel_server.request_us"] = _p50(durations_us(spans, "kernel_server"))
    for source, label in SOURCES:
        metrics[f"kernel_server.source.{label}"] = sum(
            1
            for span in spans
            if span.name == "kernel_server" and span.attrs.get("source") == source
        )
    metrics["cache.load_us.memory"] = _p50(durations_us(spans, "cache.get", tier="memory"))
    metrics["cache.load_us.disk"] = _p50(durations_us(spans, "cache.get", tier="disk"))
    metrics["cache.store_ms"] = metrics["layer.cache.store.busy_ms"]
    hits = sum(int(s.get("memory_hits", 0)) + int(s.get("disk_hits", 0)) for s in cache_stats)
    lookups = hits + sum(int(s.get("misses", 0)) for s in cache_stats)
    metrics["cache.hit_share"] = hits / lookups if lookups else 0.0
    metrics["verify.entry_us"] = _p50(durations_us(spans, "verify"))
    metrics["graphs.extract_us"] = _p50(durations_us(spans, "graphs.extract"))
    metrics["graphs.rewrite_us"] = _p50(durations_us(spans, "graphs.rewrite"))
    metrics["graphs.assemble_us"] = _p50(durations_us(spans, "graphs.assemble"))
    metrics["graphs.memo_miss_share"] = memo_miss_share
    metrics["trace.spans"] = len(spans)
    metrics.update(extra or {})
    unknown = set(metrics) - set(MOVES)
    if unknown:
        raise KeyError(f"metrics missing from the catalog: {sorted(unknown)}")
    return metrics
