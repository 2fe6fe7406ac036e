"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``cold-compile``, ``model-serve`` and ``fleet-mixed`` (see the
module of the same name).  The program is imported from ``src/`` of the
checkout the script sits in; every file the run writes goes under
``.perfbench_tmp/`` there and is removed at exit.

Standard output ends with two lines: a host stamp (``{"host": ...}``:
CPUs, Python and numpy versions, CPU steal ticks during the run, plus the
workload's own facts such as generator lateness and sample counts), then
the result object with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced pass.  A run that cannot find
the program exits with status 2 and prints no result.

The workload runs in a child process in a process group of its own; this
process waits for it, then ends and reaps whatever it left behind (see
``_supervise``), so no process of the run outlives the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
#: Set in the environment of the child process that runs the workload.
CHILD_ENV = "PERFBENCH_WORKLOAD_CHILD"
#: How long processes the workload left behind may take to end by themselves.
ORPHAN_GRACE_S = 2.0
PR_SET_CHILD_SUBREAPER = 36

WORKLOADS = ("cold-compile", "model-serve", "fleet-mixed")
#: The end-to-end metrics every workload reports, each measured on its own
#: load (see README.md for what each means per workload).
END_TO_END_UNITS = (
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("slo_ok_share", "share"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _signal_group(pgid: int, signum: int) -> bool:
    """Send ``signum`` to the group; False once no member is left."""
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        return False
    return True


def _reap_adopted() -> bool:
    """Reap every exited child; False once this process has no children."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def _end_group(pgid: int, subreaper: bool) -> None:
    """Let the group's leftovers end, kill the rest and wait for each."""
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while _signal_group(pgid, 0) and time.monotonic() < deadline:
        _reap_adopted()
        time.sleep(0.01)
    _signal_group(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    # A subreaper waits for its adopted children itself; otherwise init
    # reaps them and the group empties once it has.
    while (_reap_adopted() if subreaper else _signal_group(pgid, 0)) and (
        time.monotonic() < deadline
    ):
        time.sleep(0.01)


def _supervise(argv) -> int:
    """Run the workload in a child process group and end all it leaves.

    ``ServingFleet`` starts its workers with the ``spawn`` method, which also
    launches multiprocessing's resource tracker.  Nothing waits for that
    process and it outlives the interpreter that started it.  As a child
    subreaper this process adopts such orphans; it gives them a moment to
    end by themselves, kills what is left of the group and waits for each.
    """
    subreaper = _become_subreaper()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env={**os.environ, CHILD_ENV: "1"},
        start_new_session=True,
    )

    def forward(signum, _frame):
        _signal_group(child.pid, signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, forward)
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            _signal_group(child.pid, signal.SIGKILL)
            child.wait()
        _end_group(child.pid, subreaper)
        # The child removes its scratch itself unless it was killed.
        for path in SCRATCH.glob(f"*-{child.pid}"):
            shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    return code if code >= 0 else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get(CHILD_ENV) != "1":
        return _supervise(sys.argv[1:] if argv is None else list(argv))
    sys.path[:0] = [str(ROOT), str(SRC)]

    import importlib

    from perfbench import layers, measure

    module = importlib.import_module("perfbench." + args.workload.replace("-", "_"))
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    steal_before = measure.steal_ticks()
    try:
        inputs = module.generate(args.seed, args.seconds)
        outcome = module.run(inputs, bool(args.trace), scratch, SRC)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    host = measure.host_stamp(steal_before, measure.steal_ticks())
    host.update(outcome.info)
    print(json.dumps({"host": host}, sort_keys=True))

    if args.trace:
        units = {name: unit for name, (unit, _, _) in layers.MOVES.items()}
    else:
        units = dict(END_TO_END_UNITS)
    missing = set(units) ^ set(outcome.metrics)
    if missing:
        raise KeyError(f"metrics do not match the catalog: {sorted(missing)}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
