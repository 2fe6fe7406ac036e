"""``fleet-mixed``: a two-worker ``ServingFleet`` under an open loop.

Why: it exercises the router, IPC, duplicate compiles and head-of-line
blocking behind a cold compile.  It writes the shared plan cache where
``model-serve`` reads it, and hits the extraction memo where
``model-serve`` misses it.

The fleet runs 2 worker processes with bins (64, 256), transfer on and a
shared disk cache inside the checkout.  Workers search with tiles up to
64 (``FleetConfig.max_tile``), so the cold compiles that overlap the load
stall it for a few hundred milliseconds in all.  At tiles up to 128 they
stalled it for about a second, and how long a compile took on a shared
2-CPU host then decided most of the misses (``slo_ok_share`` spread 8-19%
between runs of one seed).  Requests are due on a seeded Poisson schedule at
a fixed offered rate of 100/s and use a small hot set of M values over four
models.  At 250/s on the same host the fleet missed 10 ms for 15-35% of
requests and the spread of both end-to-end latency metrics passed 19%; at
100/s it stays near its warm round trip.  Each model's first request is due
at a seeded time in its own window, in a fixed order, so the cold compiles
and cache writes land inside warm traffic.  Two sender threads take the next due request in turn
and time it from when it was due, so a stall also charges the requests it
delays; how late the senders ran is reported with the host stamp.
"""

from __future__ import annotations

import random
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from perfbench import measure
from perfbench.measure import Outcome
from perfbench.model_serve import MEMO_CAPACITY

#: BERT and GPT-2 share one FFN shape, so GPT-2 reads what BERT wrote.
MODELS = ("BERT", "GPT-2", "OPT-1.3B", "Qwen2.5-1.5B")
BINS = (64, 256)
HOT_SIZES = (1, 2, 4, 8, 16)
WORKERS = 2
MAX_TILE = 64
#: Offered load (requests per second); see the module docstring.
RATE_PER_S = 100.0
SENDERS = 2
#: Latency limit behind ``slo_ok_share``.
LIMIT_S = 10e-3
#: Percentile behind ``latency_ms``.  On a shared 2-CPU host the median
#: request waits on the hypervisor (it tracked CPU steal over a 2x range in
#: identical runs) while the lower quartile tracks the warm round trip
#: through router, IPC and worker; the median goes to the host line.
LATENCY_PERCENTILE = 25.0
#: Share of the run over which the models' first requests are spread.
ARRIVAL_SPAN = 0.6
SETUP_REPS = 3
VALID_SOURCES = {"table", "cache:memory", "cache:disk", "compiled",
                 "compiled:transfer", "broadcast"}


@dataclass(frozen=True)
class Inputs:
    #: (due seconds from the start, model, M), in due order.
    schedule: Tuple[Tuple[float, str, int], ...]


def generate(seed: int, seconds: float) -> Inputs:
    """A seeded open-loop schedule of ``RATE_PER_S * seconds`` requests."""
    rng = random.Random(seed)
    count = max(len(MODELS), round(RATE_PER_S * seconds))
    gaps = [rng.expovariate(1.0) for _ in range(count)]
    scale = seconds / sum(gaps)
    times = []
    clock = 0.0
    for gap in gaps:
        times.append(clock * scale)
        clock += gap
    window = ARRIVAL_SPAN * seconds / len(MODELS)
    first = [0.0] + [
        index * window + rng.uniform(0.0, window / 2) for index in range(1, len(MODELS))
    ]
    models = []
    for due in times:
        arrived = [index for index, at in enumerate(first) if at <= due]
        models.append(rng.choice(arrived))
    # The first request due at or after each model's arrival is that
    # model's first request: nothing before it could pick the model.
    for index, at in enumerate(first):
        slot = next(i for i, due in enumerate(times) if due >= at)
        models[slot] = index
    return Inputs(
        schedule=tuple(
            (due, MODELS[model], rng.choice(HOT_SIZES)) for due, model in zip(times, models)
        )
    )


def bin_for(m: int) -> int:
    return next((b for b in BINS if m <= b), BINS[-1])


# --------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------- #
@dataclass
class Sent:
    late_s: float
    from_due_s: float
    response: object


def drive(fleet, schedule: Sequence[Tuple[float, str, int]]) -> List[Sent]:
    """Send every request at its due time from ``SENDERS`` threads."""
    results: List[Optional[Sent]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(schedule):
                return
            due_at, model, m = schedule[index]
            due = start + due_at
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                response = fleet.request(model, m, kind="model")
            except Exception as exc:  # noqa: BLE001 -- counted as a failed op
                response = exc
            results[index] = Sent(sent - due, time.perf_counter() - due, response)

    threads = [threading.Thread(target=sender, name=f"sender-{i}") for i in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results  # type: ignore[return-value]


def _config(cache_dir: Path):
    from repro.fleet.config import FleetConfig

    return FleetConfig(
        workers=WORKERS,
        cache_dir=str(cache_dir),
        m_bins=BINS,
        transfer=True,
        max_tile=MAX_TILE,
    )


def start_fleet(cache_dir: Path):
    """Set-up: spawn the workers and wait until each reports ready."""
    from repro.fleet.router import ServingFleet

    fleet = ServingFleet(_config(cache_dir))
    begin = time.perf_counter()
    try:
        fleet.start(wait=True)
    except BaseException:
        fleet.close()
        raise
    return fleet, time.perf_counter() - begin


def check_response(sent: Sent, m: int) -> bool:
    response = sent.response
    return (
        not isinstance(response, Exception)
        and response.ok
        and response.bin_m == bin_for(m)
        and response.source in VALID_SOURCES
    )


def read_back(cache_dir: Path, keys) -> set:
    """The (model, M) keys an in-process server cannot re-serve correctly.

    Every (model, M) the fleet served must be servable from its shared
    cache without a compile (``FleetResponse`` carries no plan, so this is
    where the written plans are checked: loading them runs
    ``PlanVerifier``) and must price to a positive time.
    """
    from repro.graphs.server import ModelServer

    failed = set()
    server = ModelServer(config=_config(cache_dir).fuser_config(), m_bins=BINS)
    try:
        for model in MODELS:
            server.register(model, model)
        for model, m in sorted(keys):
            response = server.serve(model, m=m)
            if response.source.startswith("compiled") or not response.time_us > 0:
                failed.add((model, m))
    finally:
        server.close()
    return failed


def _checked(sent: Sequence[Sent], schedule, cache_dir: Path) -> List[bool]:
    """Whether each request was answered correctly and its plan re-serves."""
    unservable = read_back(cache_dir, {(model, m) for _, model, m in schedule})
    return [
        check_response(s, m) and (model, m) not in unservable
        for s, (_, model, m) in zip(sent, schedule)
    ]


def _pass(inputs: Inputs, cache_dir: Path, setup_reps: int, recorder=None):
    setups: List[float] = []
    for rep in range(setup_reps - 1):
        fleet, seconds = start_fleet(cache_dir.with_name(f"{cache_dir.name}-warmup{rep}"))
        fleet.close()
        setups.append(seconds)
    fleet, seconds = start_fleet(cache_dir)
    setups.append(seconds)
    try:
        if recorder is None:
            sent = drive(fleet, inputs.schedule)
        else:
            from perfbench import layers
            from perfbench.spans import Installed

            with Installed(recorder, [t for t in layers.targets() if t.layer == "fleet"]):
                sent = drive(fleet, inputs.schedule)
        router = fleet.stats().router
    finally:
        fleet.close()
    return setups, sent, router


def run(inputs: Inputs, trace: bool, scratch: Path, src: Path) -> Outcome:
    from perfbench import layers
    from perfbench.spans import SpanRecorder

    setups, sent, router = _pass(inputs, scratch / "cache", 1 if trace else SETUP_REPS)
    count = len(inputs.schedule)
    ok = _checked(sent, inputs.schedule, scratch / "cache")
    failed = count - sum(ok)
    if failed:
        print(f"fleet-mixed: {failed} failed ops", file=sys.stderr)
    from_due = [s.from_due_s if good else None for s, good in zip(sent, ok)]
    served = [value for value in from_due if value is not None]
    late = [s.late_s for s in sent]
    last_done = max(due + s.from_due_s for s, (due, _, _) in zip(sent, inputs.schedule))
    info = {
        "rate_per_s": RATE_PER_S,
        "requests": count,
        "late_p50_ms": measure.percentile(late, 50.0) * 1e3,
        "late_p99_ms": measure.percentile(late, 99.0) * 1e3,
        "late_max_ms": max(late) * 1e3,
        "p50_ms": statistics.median(served) * 1e3,
        "p99_ms": measure.percentile(served, 99.0) * 1e3,
        "served": len(served),
        "setup_s": setups,
        "router": {k: v for k, v in router.items() if isinstance(v, int)},
    }
    latency = measure.percentile(served, LATENCY_PERCENTILE)
    if trace:
        recorder = SpanRecorder()
        _, traced, traced_router = _pass(inputs, scratch / "traced", 1, recorder)
        traced_ok = _checked(traced, inputs.schedule, scratch / "traced")
        count += len(traced_ok)
        failed += len(traced_ok) - sum(traced_ok)
        traced_served = [s.from_due_s for s in traced if not isinstance(s.response, Exception)]
        responses = [s.response for s in traced if not isinstance(s.response, Exception)]
        metrics = layers.reduce(
            recorder.spans,
            memo_miss_share=measure.lru_miss_share(
                [(model, m) for _, model, m in inputs.schedule], MEMO_CAPACITY
            ),
            extra={
                **layers.fleet_metrics(
                    responses, [v * 1e6 for v in traced_served], traced_router
                ),
                "gen.late_p99_ms": measure.percentile([s.late_s for s in traced], 99.0) * 1e3,
                "trace.overhead_share": (
                    measure.percentile(traced_served, LATENCY_PERCENTILE) / latency - 1.0
                ),
            },
        )
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_ms": latency * 1e3,
            "ops_per_s": len(served) / last_done,
            "slo_ok_share": measure.slo_ok_share(from_due, LIMIT_S, count),
        }
    return Outcome(count, failed, metrics, info)
