"""Re-record the reference outcomes the benchmark checks against.

Run from the repository root only when a change is meant to alter the
pinned outcomes (selected plans, pruning counts, serving sources)::

    python3 perfbench/record_reference.py            # both files
    python3 perfbench/record_reference.py model-serve

``reference/cold_compile.json`` pins every chain of the paper's suite
(G1-G10, S1-S8, C1-C8), not only the drawn ones, so the draw can change
without re-recording.  ``reference/model_serve.json`` pins the set-up
plans and the deterministic per-source counts of ``model-serve``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import cold_compile, model_serve  # noqa: E402


def record_cold_compile() -> None:
    from repro.api import FlashFuser
    from repro.config import FuserConfig

    chains = {}
    with FlashFuser(FuserConfig()) as compiler:
        for workload in cold_compile.GEMM_IDS + cold_compile.GATED_IDS + cold_compile.CONV_IDS:
            kernel, seconds = cold_compile.compile_one(compiler, workload)
            chains[workload] = cold_compile.outcome_record(compiler, workload, kernel)
            print(f"{workload}: {chains[workload]['outcome']} in {seconds:.2f}s", flush=True)
    _write(cold_compile.REFERENCE, {"config": "FuserConfig() defaults", "chains": chains})


def record_model_serve() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        server, responses, _ = model_serve.build_stack(Path(scratch) / "cache")
        try:
            payload = model_serve.setup_record(responses)
            restart = model_serve.restart_once(Path(scratch) / "cache")
            payload["restart_sources"] = restart[1]
        finally:
            server.close()
    _write(model_serve.REFERENCE, payload)


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    which = set(sys.argv[1:]) or {"cold-compile", "model-serve"}
    if "cold-compile" in which:
        record_cold_compile()
    if "model-serve" in which:
        record_model_serve()
