"""Fleet worker process: a stateless compile pool member.

Each fleet worker is an ordinary OS process running :func:`worker_main`.
It holds one :class:`~repro.api.FlashFuser` whose plan cache points at the
fleet's shared on-disk namespace and does one thing: run the fusion search
for a chain the fleet's front end could not find in any cache tier, and
write the plan to the shared cache.  The worker keeps no kernel tables and
answers no requests; the front end reads the plan back through the normal
verified cache path.  Nothing is mocked: a compile task runs the full
search.

The queue protocol is deliberately tiny (plain tuples, pickled):

Task queue (router -> worker)
    ``("compile", task_id, chain, overrides)`` — compile one
    :class:`~repro.ir.graph.GemmChainSpec` under the fleet config plus
    ``overrides``.  When the request carries an active trace, a fifth
    element extends the tuple: the
    :meth:`~repro.obs.trace.Tracer.wire_context` triple
    ``(trace_id, parent_span_id, sent_us)``; workers adopt it so their
    spans stitch into the front end's trace (and ``sent_us`` yields a
    queue-wait span).  Workers accept both arities.
    ``("stop",)`` — drain and exit.

Result queue (worker -> router)
    ``("ready", worker_id, incarnation, stats)`` — the compiler is built.
    ``("result", worker_id, incarnation, task_id, payload, stats)`` — one
    compile; ``payload`` carries the source, elapsed time and any error.

Every message carries the worker's :meth:`FleetWorker.stats_payload` as
its last element, so the router always holds each worker's latest metrics
without asking for them.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping

from repro.api import CompileRequest, FlashFuser
from repro.errors import FusionError
from repro.fleet.config import FleetConfig
from repro.ir.graph import GemmChainSpec
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger, log_event
from repro.obs.trace import set_process_tag, tracer
from repro.runtime.server import serving_source

_logger = get_logger(__name__)


class FleetWorker:
    """The compile loop body of one fleet worker process.

    Parameters
    ----------
    worker_id:
        This worker's fleet-wide index.
    incarnation:
        Restart generation (0 for the original process); echoed on every
        message so the router can discard stragglers from dead processes.
    config:
        The fleet's :class:`~repro.fleet.config.FleetConfig`.
    cache_dir:
        Concrete shared plan-cache directory (already resolved by the
        fleet, so workers never have to agree on a default).

    The class is separable from the process entry point so tests can drive
    one in-process; production always runs it via :func:`worker_main`.

    Example
    -------
    ::

        from repro.ir.workloads import get_chain_spec

        worker = FleetWorker(0, 0, FleetConfig(), cache_dir="/tmp/ns")
        payload = worker.compile(get_chain_spec("G4").scaled(m=64), {})
        print(payload["source"])                 # 'compiled'
    """

    def __init__(
        self,
        worker_id: int,
        incarnation: int,
        config: FleetConfig,
        cache_dir: str,
    ) -> None:
        self.worker_id = worker_id
        self.incarnation = incarnation
        self.compiler = FlashFuser(config.fuser_config(cache_dir))
        self.compiles = 0

    def compile(
        self, chain: GemmChainSpec, overrides: Mapping[str, object]
    ) -> Dict[str, object]:
        """Compile ``chain`` into the shared cache; returns the wire payload.

        Never raises: an unfusable chain comes back with ``unfusable`` set
        (the front end re-raises it as :class:`FusionError`), any other
        failure as a plain ``error``.
        """
        start = time.perf_counter()
        payload: Dict[str, object] = {"source": None, "error": None}
        try:
            response = self.compiler.compile_request(
                CompileRequest(chain=chain, overrides=dict(overrides))
            )
        except FusionError as exc:
            payload.update(error=str(exc), unfusable=True)
        except Exception as exc:  # noqa: BLE001 — workers must not die mid-task
            payload["error"] = f"{type(exc).__name__}: {exc}"
        else:
            self.compiles += 1
            # A cache hit means another process stored this plan since the
            # front end looked.
            payload["source"] = serving_source(response.cache_tier, response.kernel)
        payload["compile_us"] = (time.perf_counter() - start) * 1e6
        return payload

    def stats_payload(self) -> Dict[str, object]:
        """This worker's metrics, as plain JSON-able data."""
        payload: Dict[str, object] = {
            "worker": self.worker_id,
            "incarnation": self.incarnation,
            "compiles": self.compiles,
        }
        if self.compiler.cache is not None:
            payload["cache"] = self.compiler.cache.stats.to_dict()
        return payload

    def close(self) -> None:
        """Release the compiler's pools."""
        self.compiler.close()


def worker_main(
    worker_id: int,
    incarnation: int,
    config_payload: Dict[str, object],
    cache_dir: str,
    task_queue,
    result_queue,
) -> None:
    """Process entry point: build the compiler, then compile until ``stop``.

    Parameters
    ----------
    worker_id, incarnation:
        Identity echoed on every outgoing message.
    config_payload:
        ``FleetConfig.to_dict()`` (crossing the spawn boundary as data).
    cache_dir:
        Shared plan-cache directory.
    task_queue, result_queue:
        The ``multiprocessing`` queues described in the module docstring.
    """
    set_process_tag(f"w{worker_id}-i{incarnation}")
    config = FleetConfig.from_dict(config_payload)
    worker = FleetWorker(worker_id, incarnation, config, cache_dir)
    log_event(
        _logger,
        "worker-serving",
        worker=worker_id,
        incarnation=incarnation,
        cache_dir=cache_dir,
    )
    result_queue.put(("ready", worker_id, incarnation, worker.stats_payload()))
    try:
        while True:
            task = task_queue.get()
            op = task[0]
            if op == "stop":
                break
            if op == "compile":
                _, task_id, chain, overrides = task[:4]
                wire = task[4] if len(task) > 4 else None
                with tracer().adopt(wire):
                    if wire is not None and obs_trace.enabled():
                        # The gap between the router's send timestamp and
                        # now is time the task sat in this worker's queue.
                        tracer().emit(
                            "worker.queue_wait",
                            start_us=float(wire[2]),
                            end_us=obs_trace.now_us(),
                            worker=worker_id,
                        )
                    with tracer().span(
                        "worker.compile", worker=worker_id, chain=chain.name
                    ) as span:
                        payload = worker.compile(chain, overrides)
                        span.set("source", payload.get("source"))
                stats = worker.stats_payload()
                result_queue.put(
                    ("result", worker_id, incarnation, task_id, payload, stats)
                )
    finally:
        worker.close()
        if obs_trace.enabled():
            tracer().flush()
        log_event(
            _logger, "worker-exit", worker=worker_id, incarnation=incarnation
        )
