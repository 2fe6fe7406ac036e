"""Trace replay against the serving stack.

:class:`LoadDriver` replays a :class:`~repro.bench.traces.Trace` against a
live :class:`~repro.runtime.server.KernelServer`,
:class:`~repro.graphs.server.ModelServer`, or
:class:`~repro.fleet.router.ServingFleet` through the ordinary request path
— kernel requests resolve *table → plan cache → compile* exactly like
production traffic, model requests additionally run chain extraction and
plan assembly, and fleet requests send their compiles to the worker pool
(admission control, least-loaded dispatch, failover).  Nothing is mocked: a
cold replay really pays the fusion search, a warm replay really hits the
tables, and the per-request :class:`RequestRecord` stream captures what
actually happened (wall clock, resolution source, queue depth at
dispatch).

With ``concurrency=1`` (the default) requests execute strictly in trace
order on the calling thread, which makes cache-provenance counts
deterministic for a seeded trace; higher concurrency dispatches onto a
thread pool while still honouring (scaled) arrival times, exercising the
stack's concurrent-miss deduplication.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.bench.traces import KIND_KERNEL, KIND_MODEL, Trace, TraceRequest
from repro.errors import FusionError
from repro.graphs.server import ModelServer
from repro.ir.workloads import MODEL_ZOO, get_workload
from repro.obs.trace import tracer
from repro.runtime.server import KernelServer


@dataclass(frozen=True)
class RequestRecord:
    """What one replayed request actually did.

    ``wall_us`` is the driver-observed resolution latency; ``source`` is the
    serving stack's own provenance (``table``, ``cache:memory``,
    ``cache:disk``, ``compiled``, ``compiled:transfer``, or the model
    layer's most-expensive-chain summary), and ``queue_depth`` is the number
    of requests already dispatched but not yet finished when this one was
    issued.
    """

    index: int
    phase: str
    kind: str
    target: str
    m: int
    arrival_s: float
    queue_depth: int
    wall_us: float
    source: str
    error: Optional[str] = None
    #: Search-effort counters (candidates enumerated / analyzed / skipped)
    #: reported by the stack when this request ran a fusion search.
    search_counters: Optional[Dict[str, int]] = None
    #: The request's end-to-end trace id when ``REPRO_TRACE`` was on.
    trace_id: Optional[str] = None
    #: Per-phase search wall clock (enumerate_prune/analyze/rank/profile/
    #: transfer, microseconds) when this request ran an in-process search.
    phase_times_us: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        """Whether the request resolved without an error."""
        return self.error is None

    def to_dict(self) -> Dict[str, object]:
        """Plain-dictionary form with a stable key order."""
        return {
            "index": self.index,
            "phase": self.phase,
            "kind": self.kind,
            "target": self.target,
            "m": self.m,
            "arrival_s": self.arrival_s,
            "queue_depth": self.queue_depth,
            "wall_us": self.wall_us,
            "source": self.source,
            "error": self.error,
            "search_counters": self.search_counters,
            "trace_id": self.trace_id,
            "phase_times_us": self.phase_times_us,
        }


@dataclass
class ReplayResult:
    """One finished trace replay: the records plus the replay wall clock."""

    trace: Trace
    records: List[RequestRecord]
    elapsed_s: float
    concurrency: int
    time_scale: float

    @property
    def errors(self) -> List[RequestRecord]:
        """Records of requests that failed."""
        return [record for record in self.records if not record.ok]

    def sources(self) -> Dict[str, int]:
        """Resolution-source histogram over the successful records."""
        counts: Dict[str, int] = {}
        for record in self.records:
            if record.ok:
                counts[record.source] = counts.get(record.source, 0) + 1
        return dict(sorted(counts.items()))

    def report(self, name: str = "replay", **kwargs: object) -> "PerfReport":
        """Aggregate this replay into a :class:`~repro.bench.report.PerfReport`."""
        from repro.bench.report import PerfReport

        return PerfReport.from_replay(self, name=name, **kwargs)


class LoadDriver:
    """Replay traces against a kernel server and/or model server.

    Parameters
    ----------
    server:
        The serving stack under test: a :class:`KernelServer`, a
        :class:`ModelServer`, a started
        :class:`~repro.fleet.router.ServingFleet`, or ``None`` to build a
        fresh :class:`ModelServer` from ``server_kwargs`` (which must not
        be combined with an explicit ``server``).  A :class:`ModelServer`
        or fleet serves both request kinds — kernel requests route to the
        backing kernel server(s); a bare :class:`KernelServer` serves
        kernel requests only.  A fleet is *borrowed*: the driver replays
        through it but never closes it.
    concurrency:
        Worker threads dispatching requests (1 replays inline, in order).
    time_scale:
        Multiplier applied to the trace's arrival times; 0.0 (the default)
        ignores them and replays as fast as possible.

    Example
    -------
    ::

        from repro.bench import LoadDriver, llm_serving_trace, repeat_phases

        trace = repeat_phases(llm_serving_trace(["BERT"], num_requests=16))
        driver = LoadDriver(top_k=5, max_tile=128)   # builds a ModelServer
        result = driver.replay(trace)
        print(result.report().to_dict()["phases"]["warm"])
        driver.close()
    """

    def __init__(
        self,
        server: Optional[Union[KernelServer, ModelServer]] = None,
        *,
        concurrency: int = 1,
        time_scale: float = 0.0,
        **server_kwargs: object,
    ) -> None:
        if server is not None and server_kwargs:
            raise ValueError("pass either server= or ModelServer kwargs, not both")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if time_scale < 0:
            raise ValueError("time_scale must be non-negative")
        from repro.fleet.router import ServingFleet  # local: avoids a cycle

        self._owns_server = server is None
        if server is None:
            server = ModelServer(**server_kwargs)
        self.fleet: Optional[ServingFleet] = None
        if isinstance(server, ServingFleet):
            self.fleet = server
            self.models: Optional[ModelServer] = None
            self.kernels: Optional[KernelServer] = None
        elif isinstance(server, ModelServer):
            self.models = server
            self.kernels = server.server
        else:
            self.models = None
            self.kernels = server
        self.concurrency = concurrency
        self.time_scale = time_scale

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def replay(self, trace: Trace) -> ReplayResult:
        """Replay ``trace`` and return the per-request records.

        Model requests naming zoo models that are not yet registered with
        the model server are registered automatically.  Malformed traces
        fail *before* any request is issued: a model request on a
        kernel-only driver raises :class:`ValueError`, and unknown kernel
        workload ids or model names raise :class:`KeyError` — so a partial
        replay is never silently discarded.  Failures of well-formed
        requests (e.g. :class:`~repro.errors.FusionError` on an unfusable
        chain) are captured per record, not raised.
        """
        self._prepare(trace)
        start = time.perf_counter()
        if self.concurrency == 1:
            records = [
                self._issue(index, request, start, queue_depth=0)
                for index, request in enumerate(trace.requests)
            ]
        else:
            records = self._replay_concurrent(trace, start)
        elapsed_s = time.perf_counter() - start
        return ReplayResult(
            trace=trace,
            records=records,
            elapsed_s=elapsed_s,
            concurrency=self.concurrency,
            time_scale=self.time_scale,
        )

    def close(self) -> None:
        """Release the serving stack when this driver constructed it."""
        if self._owns_server:
            (self.models or self.kernels).close()

    def __enter__(self) -> "LoadDriver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _prepare(self, trace: Trace) -> None:
        for target in sorted(
            {r.target for r in trace.requests if r.kind == KIND_KERNEL}
        ):
            get_workload(target)  # unknown workload ids fail the whole trace
        model_targets = {
            request.target
            for request in trace.requests
            if request.kind == KIND_MODEL
        }
        if self.fleet is not None:
            # The fleet registers zoo models on demand; only vet names.
            for target in sorted(model_targets):
                if target not in MODEL_ZOO:
                    raise KeyError(f"model {target!r} is not in the zoo")
            return
        if model_targets and self.models is None:
            raise ValueError(
                "trace contains model requests but the driver wraps a bare "
                "KernelServer; construct it around a ModelServer"
            )
        if self.models is not None:
            registered = set(self.models.models())
            for target in sorted(model_targets - registered):
                if target not in MODEL_ZOO:
                    raise KeyError(
                        f"model {target!r} is neither registered nor in the zoo"
                    )
                self.models.register(target, target)

    def _replay_concurrent(
        self, trace: Trace, start: float
    ) -> List[RequestRecord]:
        inflight_lock = threading.Lock()
        inflight = 0
        futures: List[Future[RequestRecord]] = []

        def run(index: int, request: TraceRequest) -> RequestRecord:
            # Sample the depth at *issue* time, on the worker thread, in the
            # same critical section that registers this request — sampling
            # at submit time (the old behaviour) counted pool-queued
            # requests that had not started and missed ones that finished
            # while this one sat in the pool queue.
            nonlocal inflight
            with inflight_lock:
                depth = inflight
                inflight += 1
            try:
                return self._issue(index, request, start, queue_depth=depth)
            finally:
                with inflight_lock:
                    inflight -= 1

        with ThreadPoolExecutor(
            max_workers=self.concurrency, thread_name_prefix="bench-driver"
        ) as pool:
            for index, request in enumerate(trace.requests):
                self._pace(request, start)
                futures.append(pool.submit(run, index, request))
            records = [future.result() for future in futures]
        return records

    def _pace(self, request: TraceRequest, start: float) -> None:
        if self.time_scale <= 0:
            return
        target = start + request.arrival_s * self.time_scale
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)

    def _issue(
        self, index: int, request: TraceRequest, start: float, queue_depth: int
    ) -> RequestRecord:
        if self.concurrency == 1:
            self._pace(request, start)
        issued = time.perf_counter()
        source = "error"
        error: Optional[str] = None
        search_counters: Optional[Dict[str, int]] = None
        phase_times_us: Optional[Dict[str, float]] = None
        with tracer().root(
            "request",
            kind=request.kind,
            target=request.target,
            m=request.m,
            phase=request.phase,
        ) as span:
            try:
                if self.fleet is not None:
                    fleet_response = self.fleet.serve(
                        request.target, request.m, kind=request.kind
                    )
                    if fleet_response.source is not None:
                        source = fleet_response.source
                    if fleet_response.rejected:
                        error = (
                            "rejected: fleet admission watermark "
                            f"(retry after {fleet_response.retry_after_s:.3f}s)"
                        )
                    else:
                        error = fleet_response.error
                    search_counters = getattr(
                        fleet_response, "search_counters", None
                    )
                elif request.kind == KIND_KERNEL:
                    response = self.kernels.request(request.target, request.m)
                    source = response.source
                    search_counters = response.search_counters
                    phase_times_us = getattr(response, "phase_times_us", None)
                else:
                    assert self.models is not None  # _prepare guarantees this
                    model_response = self.models.serve(
                        request.target, m=request.m
                    )
                    source = model_response.source
                    search_counters = model_response.search_counters
                    phase_times_us = getattr(
                        model_response, "phase_times_us", None
                    )
            except FusionError as exc:
                error = f"FusionError: {exc}"
            span.set("source", source)
            trace_id = span.trace_id
        wall_us = (time.perf_counter() - issued) * 1e6
        return RequestRecord(
            index=index,
            phase=request.phase,
            kind=request.kind,
            target=request.target,
            m=request.m,
            arrival_s=request.arrival_s,
            queue_depth=queue_depth,
            wall_us=wall_us,
            source=source,
            error=error,
            search_counters=search_counters,
            trace_id=trace_id,
            phase_times_us=phase_times_us,
        )
