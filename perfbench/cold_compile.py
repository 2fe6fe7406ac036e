"""``cold-compile``: serial exact fusion search over the paper's chain suite.

Why: it is the cold-compile cost users pay per new shape (Table VIII).
Search, dataflow analysis, the cost model, simulator profiling and code
generation do all the work; no serving, cache or graph layer runs.

One :class:`~repro.api.FlashFuser` with the default ``FuserConfig`` (the
paper's knobs: top-K 11, tiles up to 256), no plan cache, transfer off and
the serial engine compiles the chains in a fixed order through the public
``FlashFuser.compile_request``.  A full G1-G10/S1-S8/C1-C8 pass takes about
two minutes on a 2-CPU host, longer than one run may measure, so the suite
is a stratified draw over the three families made once with
``DRAW_SEED``.  C4 is kept on purpose: it raises ``FusionError`` after a
full search, a cost users pay.  The run's ``--seed`` draws the inputs of
the independent functional check (see :func:`functional_check`).

Every chain's outcome is compared with ``reference/cold_compile.json``
(plan-cache key, selected tile, geometry and schedule, top-K order,
per-rule pruning counts, simulated time); a mismatch is a failed op.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perfbench import measure
from perfbench.measure import Outcome

GEMM_IDS = tuple(f"G{index}" for index in range(1, 11))
GATED_IDS = tuple(f"S{index}" for index in range(1, 9))
CONV_IDS = tuple(f"C{index}" for index in range(1, 9))
#: Chains with no feasible fused plan at the paper's knobs.
UNFUSABLE = ("C4", "C8")
#: The unfusable chain every pass keeps.
KEPT_UNFUSABLE = "C4"
#: Seed of the one-time stratified draw; changing it changes the workload.
DRAW_SEED = 12
STRATA: Tuple[Tuple[Tuple[str, ...], int], ...] = (
    (GEMM_IDS, 2),
    (GATED_IDS, 1),
    (tuple(c for c in CONV_IDS if c not in UNFUSABLE), 1),
)
#: Wall time of one pass on the reference host; --seconds buys whole passes.
PASS_SECONDS = 20.0
#: Per-chain compile-time limit behind ``slo_ok_share``.
LIMIT_S = 30.0
#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 5
REFERENCE = Path(__file__).resolve().parent / "reference" / "cold_compile.json"


def suite() -> List[str]:
    """The drawn chains, in their fixed compile order."""
    rng = random.Random(DRAW_SEED)
    chosen: List[str] = []
    for ids, count in STRATA:
        chosen.extend(sorted(rng.sample(list(ids), count), key=ids.index))
    chosen.append(KEPT_UNFUSABLE)
    return chosen


@dataclass(frozen=True)
class Inputs:
    chains: Tuple[str, ...]
    passes: int
    check_seed: int


def generate(seed: int, seconds: float) -> Inputs:
    """The run's inputs: the suite, the pass count and the check seed."""
    return Inputs(
        chains=tuple(suite()),
        passes=max(1, round(seconds / PASS_SECONDS)),
        check_seed=seed,
    )


# --------------------------------------------------------------------- #
# Outcome records (shared with record_reference.py)
# --------------------------------------------------------------------- #
def _schedule(schedule) -> Dict[str, object]:
    return {"spatial": sorted(schedule.spatial), "temporal": list(schedule.temporal)}


def outcome_record(compiler, workload: str, kernel=None) -> Dict[str, object]:
    """What the reference pins for one chain (``kernel=None``: FusionError)."""
    from repro.ir.workloads import get_chain_spec
    from repro.runtime.cache import plan_cache_key

    chain = get_chain_spec(workload)
    key = plan_cache_key(chain, compiler.device, compiler.config.cache_key_fields())
    if kernel is None:
        return {"outcome": "FusionError", "cache_key": key}
    search = kernel.search
    stats = search.pruning_stats
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
            "initial": stats.initial,
            **{rule.value: count for rule, count in stats.surviving.items()},
        },
        "enumerated": search.candidates_enumerated,
        "analyzed": search.candidates_analyzed,
        "time_us": kernel.time_us,
    }


def compile_one(compiler, workload: str):
    """Compile one chain; returns (kernel or None on FusionError, seconds)."""
    from repro.api import CompileRequest
    from repro.errors import FusionError

    start = time.perf_counter()
    try:
        kernel = compiler.compile_request(CompileRequest(workload=workload)).kernel
    except FusionError:
        kernel = None
    return kernel, time.perf_counter() - start


def load_reference() -> Dict[str, Dict[str, object]]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["chains"]


# --------------------------------------------------------------------- #
# Independent check
# --------------------------------------------------------------------- #
def functional_check(plan, seed: int) -> bool:
    """Run the plan's cluster geometry on a scaled-down copy of its chain.

    The copy keeps the chain's kind and activation and the selected
    geometry, with 4-wide block tiles (the ``l`` tile widened so the
    reduce-scatter splits evenly) and two cluster tiles along m, n and l.
    ``FunctionalExecutor.run_fused`` routes every exchange through the
    DSM primitives; it must match the unfused ``run_reference``.
    """
    import numpy as np

    from repro.dataflow.tiling import TileConfig
    from repro.ir.graph import GemmChainSpec
    from repro.sim.executor import FunctionalExecutor, make_chain_inputs

    geometry = plan.geometry
    groups = max(1, geometry.cls_n // max(1, geometry.cls_shuffle))
    tile = TileConfig(block_m=4, block_n=4, block_k=4, block_l=4 * groups)
    chain = plan.chain
    small = GemmChainSpec(
        name=f"{chain.name}.check",
        m=2 * tile.block_m * geometry.cls_m,
        n=2 * tile.block_n * geometry.cls_n,
        k=tile.block_k * geometry.cls_k,
        l=2 * tile.block_l * geometry.cls_l,
        kind=chain.kind,
        activation=chain.activation,
        dtype=chain.dtype,
    )
    executor = FunctionalExecutor(small)
    inputs = make_chain_inputs(small, seed=seed)
    fused = executor.run_fused(inputs, geometry, tile)
    return bool(np.allclose(fused, executor.run_reference(inputs), rtol=1e-9, atol=1e-12))


# --------------------------------------------------------------------- #
# Run
# --------------------------------------------------------------------- #
def time_setup(src: Path) -> float:
    """Seconds for a fresh process to import the compiler and build one."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from repro import FlashFuser, FuserConfig; FlashFuser(FuserConfig())"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=120)
    return time.perf_counter() - start


@dataclass
class PassResult:
    wall_s: float
    compile_s: List[float]
    correct: List[bool]
    plan_times_us: List[float]
    kernels: List[Tuple[str, object]]


def run_pass(chains: Sequence[str], reference: Dict[str, Dict[str, object]]) -> PassResult:
    """Compile the suite once through one fresh compiler and check it."""
    from repro.api import FlashFuser
    from repro.config import FuserConfig

    compiler = FlashFuser(FuserConfig())
    try:
        outcomes = []
        start = time.perf_counter()
        for workload in chains:
            outcomes.append((workload, *compile_one(compiler, workload)))
        wall = time.perf_counter() - start
        correct: List[bool] = []
        plan_times: List[float] = []
        kernels: List[Tuple[str, object]] = []
        for workload, kernel, _ in outcomes:
            record = outcome_record(compiler, workload, kernel)
            correct.append(record == reference.get(workload))
            if not correct[-1]:
                print(f"cold-compile: {workload} differs from the reference",
                      file=sys.stderr)
                continue
            if kernel is not None:
                plan_times.append(kernel.time_us)
                kernels.append((workload, kernel))
    finally:
        compiler.close()
    return PassResult(wall, [o[2] for o in outcomes], correct, plan_times, kernels)


def run(inputs: Inputs, trace: bool, scratch: Path, src: Path) -> Outcome:
    from perfbench import layers
    from perfbench.spans import Installed, SpanRecorder

    reference = load_reference()
    setup = [] if trace else [time_setup(src) for _ in range(SETUP_REPS)]
    passes = [run_pass(inputs.chains, reference) for _ in range(inputs.passes)]
    spans = []
    if trace:
        recorder = SpanRecorder()
        with Installed(recorder, layers.targets()):
            passes.append(run_pass(inputs.chains, reference))
        spans = recorder.spans
    attempted = len(inputs.chains) * len(passes)
    failed = sum(not ok for p in passes for ok in p.correct)
    # Independent check, outside every timed region.
    for workload, kernel in passes[0].kernels:
        if not functional_check(kernel.plan, inputs.check_seed):
            failed += 1
            print(f"cold-compile: {workload} fused execution differs", file=sys.stderr)
    untraced = passes[: inputs.passes]
    compile_times = [t for p in untraced for t in p.compile_s]
    within = [
        t if ok else None for p in untraced for t, ok in zip(p.compile_s, p.correct)
    ]
    info = {
        "chains": list(inputs.chains),
        "draw_seed": DRAW_SEED,
        "compile_s": [p.wall_s for p in untraced],
        "chain_s": {w: t for w, t in zip(inputs.chains, untraced[0].compile_s)},
        "plan_time_geomean_us": (
            measure.geomean(untraced[0].plan_times_us) if untraced[0].plan_times_us else None
        ),
    }
    if trace:
        overhead = passes[-1].wall_s / statistics.median([p.wall_s for p in untraced]) - 1.0
        metrics = layers.reduce(spans, extra={"trace.overhead_share": overhead})
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            # Geometric mean: the chains differ ~2x in cost, and the median
            # of five is one chain's time, so it jumps between chains.
            "latency_ms": measure.geomean(compile_times) * 1e3,
            "ops_per_s": len(compile_times) / sum(p.wall_s for p in untraced),
            "slo_ok_share": measure.slo_ok_share(within, LIMIT_S, len(within)),
        }
        info["setup_s"] = setup
    return Outcome(attempted, failed, metrics, info)
