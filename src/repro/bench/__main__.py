"""``python -m repro.bench`` — run one serving benchmark end to end.

Builds the scenario trace a :class:`~repro.bench.config.BenchConfig`
describes, replays it against a fresh :class:`~repro.graphs.server.ModelServer`
stack, writes the :class:`~repro.bench.report.PerfReport` JSON, and prints a
short summary.  With ``--baseline`` the fresh report is additionally diffed
against a stored one and deterministic regressions (hit rate, errors,
search-candidate counters) fail the run — the CI benchmarks job uses
exactly this entry point.  ``--gate-timing`` additionally arms the
wall-clock gates (overall and cold-phase p50 ratios) at loose default
tolerances.

The ``fleet`` scenario replays against a
:class:`~repro.fleet.router.ServingFleet` instead; ``--workers`` takes one
or more compile-pool sizes, one report is written per size (``_w{n}``
inserted before the output suffix), and a scaling summary compares their
throughputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.bench.config import SCENARIOS, BenchConfig
from repro.bench.driver import LoadDriver
from repro.bench.report import PerfReport, compare
from repro.bench.traces import scenario_trace
from repro.config import FuserConfig
from repro.graphs.server import ModelServer
from repro.obs import trace as obs_trace

#: Default report artifact name (the repo's perf trajectory convention).
DEFAULT_OUTPUT = "BENCH_bench.json"

#: Timing-gate thresholds applied by ``--gate-timing`` when the explicit
#: ``--max-p50-ratio`` / ``--max-cold-p50-ratio`` flags are not given.
#: Wall-clock ratios compare elapsed time across possibly different
#: machines, so the defaults carry generous headroom: a 3x budget tolerates
#: a loaded or slower runner while still catching a reintroduced
#: cold-compile cliff (which regresses by 1-2 orders of magnitude).
DEFAULT_MAX_P50_RATIO = 3.0
DEFAULT_MAX_COLD_P50_RATIO = 3.0


def run(config: BenchConfig, *, name: str = "bench") -> PerfReport:
    """Replay ``config``'s scenario against a fresh serving stack.

    The stack is built from the config's compiler knobs; without a
    configured cache directory the replay starts genuinely cold, so the
    report's ``cold`` phase prices the fusion search and the ``warm`` phase
    prices steady-state serving.
    """
    trace = scenario_trace(config)
    with ModelServer(
        config=config.fuser_config(), m_bins=config.m_bins
    ) as server:
        with LoadDriver(
            server, concurrency=config.concurrency, time_scale=config.time_scale
        ) as driver:
            result = driver.replay(trace)
    return result.report(name=name, config=config.to_dict())


def run_fleet(config: BenchConfig, *, name: Optional[str] = None) -> PerfReport:
    """Replay ``config``'s scenario against a fresh serving fleet.

    The fleet runs ``config.workers`` worker processes over a fresh shared
    plan-cache namespace (unless ``config.cache`` pins one); the driver's
    ``concurrency`` threads feed its front end, so distinct cold compiles
    spread across the worker pool while warm requests resolve in-process.
    The fleet's :class:`~repro.fleet.stats.FleetStats` snapshot is attached
    to the report under the ``fleet`` key.
    """
    from repro.fleet.router import ServingFleet

    trace = scenario_trace(config)
    with ServingFleet(config.fleet_config()) as fleet:
        with LoadDriver(
            fleet, concurrency=config.concurrency, time_scale=config.time_scale
        ) as driver:
            result = driver.replay(trace)
        stats = fleet.stats()
    fleet_block = stats.to_dict()
    # Compiles are CPU-bound, so wall-clock scaling is capped at
    # min(workers, cores); record the host's core count so a flat curve
    # from a core-starved runner explains itself in the artifact.
    fleet_block["host_cpus"] = os.cpu_count()
    return result.report(
        name=name or f"fleet-w{config.workers}",
        config=config.to_dict(),
        fleet=fleet_block,
    )


def _worker_output(path: str, workers: int) -> str:
    """``BENCH_fleet.json`` + 4 workers -> ``BENCH_fleet_w4.json``."""
    base = Path(path)
    return str(base.with_name(f"{base.stem}_w{workers}{base.suffix}"))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Replay a seeded serving trace and write a PerfReport JSON.",
    )
    defaults = BenchConfig()
    parser.add_argument("--scenario", choices=SCENARIOS, default=defaults.scenario)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--requests",
        type=int,
        default=defaults.num_requests,
        help="requests in the measured (warm) load; the cold phase adds one "
        "coverage request per distinct kernel, not another batch of these",
    )
    parser.add_argument("--concurrency", type=int, default=defaults.concurrency)
    parser.add_argument(
        "--time-scale",
        type=float,
        default=defaults.time_scale,
        help="multiplier on trace arrival gaps (0 = as fast as possible)",
    )
    parser.add_argument(
        "--models",
        nargs="+",
        default=list(defaults.models),
        help="model-zoo names for the llm scenarios",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=list(defaults.workloads),
        help="workload ids for the kernels scenario",
    )
    parser.add_argument(
        "--m-bins", nargs="+", type=int, default=list(defaults.m_bins)
    )
    parser.add_argument("--device", default=defaults.device)
    parser.add_argument("--top-k", type=int, default=defaults.top_k)
    parser.add_argument("--max-tile", type=int, default=defaults.max_tile)
    parser.add_argument(
        "--cache",
        default=None,
        help="plan-cache directory (omit for a genuinely cold cold-phase)",
    )
    parser.add_argument(
        "--no-transfer",
        action="store_true",
        help="disable nearest-shape warm-start transfer search (measures "
        "the pure exact-search cold phase)",
    )
    parser.add_argument(
        "--workers",
        nargs="+",
        type=int,
        default=[1],
        help="fleet scenario only: worker counts to run, one report per "
        "count (e.g. --workers 1 2 4 produces a scaling curve)",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help=f"report JSON path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="stored PerfReport JSON to diff against; deterministic "
        "regressions (hit rate, errors) fail the run",
    )
    parser.add_argument(
        "--max-p50-ratio",
        type=float,
        default=None,
        help="optional timing gate for --baseline: fail when the new p50 "
        "exceeds baseline p50 by this factor (wall-clock, so give it "
        "headroom; see --gate-timing for the defaults)",
    )
    parser.add_argument(
        "--max-cold-p50-ratio",
        type=float,
        default=None,
        help="optional timing gate for --baseline: fail when the new "
        "cold-phase p50 exceeds the baseline's by this factor — the "
        "cold-compile-cliff guard (wall-clock, so give it headroom)",
    )
    parser.add_argument(
        "--gate-timing",
        action="store_true",
        help="enable the timing gates with default tolerances "
        f"(p50 {DEFAULT_MAX_P50_RATIO}x, cold p50 "
        f"{DEFAULT_MAX_COLD_P50_RATIO}x) for any --max-*-ratio flag not "
        "given explicitly; tolerances are ratios of wall-clock latency, "
        "deliberately loose because runner speed varies — the "
        "deterministic gates (hit rate, errors, candidates enumerated/"
        "analyzed) are always exact and always on",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="enable request tracing (REPRO_TRACE) and write this process's "
        "spans to the given JSONL path; fleet workers write sibling "
        "spans-*.jsonl files into the same directory — inspect with "
        "'python -m repro.obs summarize'",
    )
    parser.add_argument(
        "--max-hit-rate-drop",
        type=float,
        default=0.0,
        help="tolerated cache hit-rate drop vs --baseline (fraction; "
        "default 0, an exact gate)",
    )
    args = parser.parse_args(argv)
    if args.gate_timing:
        if args.max_p50_ratio is None:
            args.max_p50_ratio = DEFAULT_MAX_P50_RATIO
        if args.max_cold_p50_ratio is None:
            args.max_cold_p50_ratio = DEFAULT_MAX_COLD_P50_RATIO

    config = BenchConfig(
        scenario=args.scenario,
        seed=args.seed,
        num_requests=args.requests,
        concurrency=args.concurrency,
        time_scale=args.time_scale,
        models=tuple(args.models),
        workloads=tuple(args.workloads),
        m_bins=tuple(args.m_bins),
        device=args.device,
        top_k=args.top_k,
        max_tile=args.max_tile,
        cache=args.cache,
        transfer=not args.no_transfer,
    )
    # Fail early on an unknown device instead of mid-replay.
    FuserConfig(device=config.device).resolve_device()

    if args.trace_out is not None:
        trace_out = Path(args.trace_out)
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        # Publishing the directory via the environment lets spawned fleet
        # workers flush their span files next to this process's.
        obs_trace.enable(out_dir=trace_out.parent)

    if config.scenario == "fleet":
        runs: List[Tuple[int, PerfReport]] = []
        for workers in args.workers:
            report = run_fleet(config.replace(workers=workers))
            output = (
                _worker_output(args.output, workers)
                if len(args.workers) > 1
                else args.output
            )
            path = report.save(output)
            for line in report.summary_lines():
                print(line)
            fleet_block = report.payload.get("fleet", {})
            router = fleet_block.get("router", {})
            print(
                f"  fleet: {workers} worker(s), "
                f"{router.get('restarts', 0)} restart(s), "
                f"{router.get('dispatched', 0)} dispatched compile(s)"
            )
            print(f"wrote {path}")
            runs.append((workers, report))
        if len(runs) > 1:
            base_workers, base_report = runs[0]
            print("scaling curve (throughput vs "
                  f"{base_workers} worker(s)):")
            for workers, report in runs:
                ratio = (
                    report.throughput_rps / base_report.throughput_rps
                    if base_report.throughput_rps > 0
                    else 0.0
                )
                print(
                    f"  w={workers}: {report.throughput_rps:.1f} req/s "
                    f"({ratio:.2f}x)"
                )
            host_cpus = os.cpu_count() or 1
            if host_cpus < max(workers for workers, _ in runs):
                print(
                    f"  note: host has {host_cpus} core(s); compile "
                    "throughput scaling is capped at min(workers, cores)"
                )
        report = runs[-1][1]
    else:
        report = run(config)
        path = report.save(args.output)
        for line in report.summary_lines():
            print(line)
        print(f"wrote {path}")

    if args.trace_out is not None:
        obs_trace.tracer().flush(args.trace_out)
        print(f"wrote trace spans to {args.trace_out}")

    if args.baseline is not None:
        baseline = PerfReport.load(args.baseline)
        delta = compare(baseline, report)
        print(
            f"vs baseline {baseline.name}: "
            f"p50 ratio {delta.p50_ratio and round(delta.p50_ratio, 2)}, "
            f"cold p50 ratio "
            f"{delta.cold_p50_ratio and round(delta.cold_p50_ratio, 2)}, "
            f"hit-rate delta {delta.hit_rate_delta:+.1%}, "
            f"errors {delta.error_delta:+d}"
        )
        if delta.search_delta is not None:
            print(
                "  search delta: "
                + ", ".join(
                    f"{counter} {value:+d}"
                    for counter, value in delta.search_delta.items()
                )
            )
        problems = delta.regressions(
            max_p50_ratio=args.max_p50_ratio,
            max_cold_p50_ratio=args.max_cold_p50_ratio,
            max_hit_rate_drop=args.max_hit_rate_drop,
        )
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
