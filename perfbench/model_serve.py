"""``model-serve``: an in-process ``ModelServer`` under a closed loop.

Why: it is where the warm-path work acts (model-plan assembly and residual
pricing, tracing-off cost, serving metrics); search does no work after
set-up.  Four zoo models with distinct FFN shapes, standard and gated, are
served through ``ModelServer.serve`` with bins (64, 256), transfer on and a
plan cache on disk inside the checkout.

* Set-up builds the stack, registers the models and serves one cold
  request per (model, bin): two exact searches, the rest transfer-seeded.
* The measured load is a closed loop from one client thread over a fixed,
  seeded request sequence.  Most requests use a few common decode sizes,
  which hit the server's 64-entry extraction memo; about a fifth draw M
  across 1..256, which misses it.  The p50 therefore prices the hot path
  (table lookup, plan assembly, stats) and the tail the graph build,
  rewrite and extraction.  The memo-miss share is computed from the
  sequence itself.
* A restart phase then builds a fresh ``ModelServer`` over the populated
  cache many times and serves every (model, bin) once: the disk tier and
  ``PlanVerifier``.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perfbench import measure
from perfbench.measure import Outcome

MODELS = ("BERT", "OPT-1.3B", "Qwen2.5-1.5B", "LLaMA-1B")
BINS = (64, 256)
#: Common decode batch sizes: 4 models x 4 sizes stay inside the memo.
HOT_SIZES = (1, 2, 4, 8)
WIDE_SHARE = 0.2
WIDE_RANGE = (1, 256)
#: Capacity of the extraction memo in ``repro.graphs.server``.
MEMO_CAPACITY = 64
#: Closed-loop serves per second of --seconds on the reference host.
REQUESTS_PER_SECOND = 3600
RESTARTS = 200
#: Blocks the closed loop is timed in (see :func:`serve_loop`).
BLOCKS = 20
SETUP_REPS = 3
#: Per-serve latency limit behind ``slo_ok_share``.
LIMIT_S = 2e-3
REFERENCE = Path(__file__).resolve().parent / "reference" / "model_serve.json"


@dataclass(frozen=True)
class Inputs:
    requests: Tuple[Tuple[str, int], ...]
    restarts: int


def generate(seed: int, seconds: float) -> Inputs:
    """A seeded request sequence; models rotate so per-source counts repeat."""
    rng = random.Random(seed)
    count = max(len(MODELS), round(seconds * REQUESTS_PER_SECOND))
    requests = []
    for index in range(count):
        if rng.random() < WIDE_SHARE:
            m = rng.randint(*WIDE_RANGE)
        else:
            m = rng.choice(HOT_SIZES)
        requests.append((MODELS[index % len(MODELS)], m))
    return Inputs(requests=tuple(requests), restarts=RESTARTS)


def memo_miss_share(requests: Sequence[Tuple[str, int]]) -> float:
    """Share of the sequence that misses the server's extraction memo."""
    return measure.lru_miss_share(requests, MEMO_CAPACITY)


# --------------------------------------------------------------------- #
# Phases (also used by record_reference.py)
# --------------------------------------------------------------------- #
def _server(cache_dir: Path):
    from repro.graphs.server import ModelServer

    server = ModelServer(cache=str(cache_dir), m_bins=BINS, transfer=True)
    for model in MODELS:
        server.register(model, model)
    return server


def build_stack(cache_dir: Path):
    """Set-up: a fresh stack serving one cold request per (model, bin)."""
    start = time.perf_counter()
    server = _server(cache_dir)
    responses = [(model, bin_m, server.serve(model, m=bin_m)) for model in MODELS for bin_m in BINS]
    return server, responses, time.perf_counter() - start


def setup_record(responses) -> Dict[str, object]:
    """What the reference pins about set-up: sources, counters, plan times."""
    return {
        "setup": {
            f"{model}@{bin_m}": {
                "source": response.source,
                "search_counters": response.search_counters,
                "time_us": response.time_us,
            }
            for model, bin_m, response in responses
        }
    }


def restart_once(cache_dir: Path):
    """A fresh server over the populated cache serves every (model, bin)."""
    start = time.perf_counter()
    server = _server(cache_dir)
    responses = [(model, bin_m, server.serve(model, m=bin_m)) for model in MODELS for bin_m in BINS]
    seconds = time.perf_counter() - start
    cache = server.snapshot()["kernels"].get("cache", {})
    server.close()
    sources = dict(Counter(response.source for _, _, response in responses))
    times = {f"{model}@{bin_m}": r.time_us for model, bin_m, r in responses}
    return seconds, sources, times, cache


def serve_loop(server, requests: Sequence[Tuple[str, int]]):
    """The closed loop: returns (block rates, wall seconds, latencies, plan times).

    The sequence is timed in ``BLOCKS`` consecutive blocks; ``ops_per_s``
    is the median block rate, so a slow stretch of the host moves it less
    than it moves the whole-run mean.
    """
    latencies: List[float] = []
    plan_times: List[float] = []
    serve = server.serve
    clock = time.perf_counter
    size = max(1, len(requests) // BLOCKS)
    rates: List[float] = []
    start = block_start = clock()
    for index, (model, m) in enumerate(requests, start=1):
        t0 = clock()
        response = serve(model, m=m)
        t1 = clock()
        latencies.append(t1 - t0)
        plan_times.append(response.time_us)
        if index % size == 0:
            rates.append(size / (t1 - block_start))
            block_start = t1
    return rates, clock() - start, latencies, plan_times


def _by_source(server) -> Counter:
    return Counter(server.snapshot()["kernels"]["serving"]["by_source"])


@dataclass
class PassData:
    """What one pass observed; checked after the pass, outside its timing."""

    setups: List[float]
    setup_responses: list
    rates: List[float]
    wall_s: float
    latencies: List[float]
    plan_times: List[float]
    load_sources: Counter
    directory: Path
    restarts: List[float]
    restart_sources: List[Dict[str, int]]
    restart_times: List[Dict[str, float]]
    cache_stats: List[Dict[str, object]]


def _pass(inputs: Inputs, cache_dir: Path, setup_reps: int) -> PassData:
    """Set-up (``setup_reps`` times), the closed loop and the restarts."""
    setups: List[float] = []
    setup_responses = []
    server = None
    for rep in range(setup_reps):
        if server is not None:
            server.close()
        directory = cache_dir.with_name(f"{cache_dir.name}-{rep}")
        server, responses, seconds = build_stack(directory)
        setups.append(seconds)
        setup_responses.append(responses)
    try:
        before = _by_source(server)
        rates, wall, latencies, plan_times = serve_loop(server, inputs.requests)
        load_sources = _by_source(server) - before
        cache_stats = [server.snapshot()["kernels"].get("cache", {})]
    finally:
        server.close()
    data = PassData(setups, setup_responses, rates, wall, latencies, plan_times,
                    load_sources, directory, [], [], [], cache_stats)
    for _ in range(inputs.restarts):
        seconds, sources, times, cache = restart_once(directory)
        data.restarts.append(seconds)
        data.restart_sources.append(sources)
        data.restart_times.append(times)
        data.cache_stats.append(cache)
    return data


class _Checker:
    """Counts attempted and failed ops against the recorded reference."""

    def __init__(self) -> None:
        with open(REFERENCE, encoding="utf-8") as handle:
            self.reference = json.load(handle)
        self.attempted = 0
        self.failed = 0

    def _fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            print(f"model-serve: {count} x {what}", file=sys.stderr)

    def check(self, requests: Sequence[Tuple[str, int]], data: PassData) -> List[bool]:
        """Check one pass; returns whether each measured serve was right."""
        expected_setup = self.reference["setup"]
        for responses in data.setup_responses:
            record = setup_record(responses)["setup"]
            self.attempted += len(record)
            self._fail(sum(record[key] != expected_setup.get(key) for key in record),
                       "set-up serve differs from the reference")
        self.attempted += len(requests)
        if data.load_sources != Counter({"table": len(requests)}):
            self._fail(len(requests), f"per-source counts {dict(data.load_sources)}")
            return [False] * len(requests)
        # In-process reference: a fresh server (no memo, no kernel table)
        # prices every distinct (model, M) once.
        reference = _server(data.directory)
        try:
            expected = {key: reference.serve(key[0], m=key[1]).time_us for key in set(requests)}
        finally:
            reference.close()
        ok = [t == expected[key] for key, t in zip(requests, data.plan_times)]
        self._fail(ok.count(False), "serve priced differently from a fresh server")
        plan_times = {key: value["time_us"] for key, value in expected_setup.items()}
        for sources, times in zip(data.restart_sources, data.restart_times):
            self.attempted += sum(sources.values())
            if sources != self.reference["restart_sources"]:
                self._fail(sum(sources.values()), f"restart sources {sources}")
            self._fail(sum(times[key] != plan_times[key] for key in times),
                       "restart plan differs from set-up")
        return ok


def run(inputs: Inputs, trace: bool, scratch: Path, src: Path) -> Outcome:
    from perfbench import layers
    from perfbench.spans import Installed, SpanRecorder

    checker = _Checker()
    data = _pass(inputs, scratch / "cache", 1 if trace else SETUP_REPS)
    ok = checker.check(inputs.requests, data)
    count = len(inputs.requests)
    tail = measure.summarize(data.latencies, 99.0)
    restart = measure.summarize(data.restarts, 50.0)
    info = {
        "requests": count,
        "memo_miss_share": memo_miss_share(inputs.requests),
        "serve_p99_us": tail["value"] * 1e6,
        "serve_p99_samples_beyond": tail["beyond"],
        "supported_tail_percentile": measure.supported_tail(count),
        "restart_p50_ms": restart["value"] * 1e3,
        "restarts": restart["samples"],
        "setup_s": data.setups,
    }
    if trace:
        recorder = SpanRecorder()
        with Installed(recorder, layers.targets()):
            traced = _pass(inputs, scratch / "traced", 1)
        checker.check(inputs.requests, traced)
        metrics = layers.reduce(
            recorder.spans,
            cache_stats=traced.cache_stats,
            memo_miss_share=info["memo_miss_share"],
            extra={
                "serve.p99_us": info["serve_p99_us"],
                "serve.p99_samples": count,
                "serve.restart_p50_ms": info["restart_p50_ms"],
                "trace.overhead_share": traced.wall_s / data.wall_s - 1.0,
            },
        )
    else:
        metrics = {
            "setup_s": statistics.median(data.setups),
            "latency_ms": statistics.median(data.latencies) * 1e3,
            "ops_per_s": statistics.median(data.rates),
            "slo_ok_share": measure.slo_ok_share(
                [lat if good else None for lat, good in zip(data.latencies, ok)],
                LIMIT_S,
                count,
            ),
        }
    return Outcome(checker.attempted, checker.failed, metrics, info)
