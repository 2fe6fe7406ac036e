"""Serving fleet: an in-process front end over a single-flight compile pool.

:class:`ServingFleet` answers every request in the caller's thread through
one :class:`~repro.graphs.server.ModelServer` front end over the fleet's
shared plan-cache directory.  Only a request that misses the front end's
tables and both cache tiers crosses a process boundary: the miss becomes
one compile task for the least-loaded :mod:`~repro.fleet.worker` process,
which writes the plan to the shared cache for the front end to load
through the verified cache path.  ``KernelServer``'s per-(key, bin)
in-flight lock makes concurrent misses on one key wait for that compile,
so each distinct plan compiles once per fleet.  Past ``watermark``
in-flight compiles a miss is *rejected* with a Retry-After hint; warm hits
never queue, so they are never rejected.  A health monitor respawns dead
workers (backing off while they die before reporting ready) and fails
their compile tasks over to survivors, bounded by ``max_retries``.

Lock order: the front end holds ``kernel-server.inflight[...]`` while it
waits for the pool and takes ``fleet-router`` briefly inside it; nothing
that holds ``fleet-router`` ever calls into the front end.
"""

from __future__ import annotations

import contextvars
import itertools
import logging
import multiprocessing
import multiprocessing.connection
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.locks import make_lock
from repro.api import CompiledKernel
from repro.bench.traces import KIND_KERNEL, KIND_MODEL
from repro.errors import FusionError
from repro.fleet.config import FleetConfig
from repro.fleet.stats import FleetStats
from repro.fleet.worker import worker_main
from repro.graphs.server import ModelServer
from repro.ir.graph import GemmChainSpec
from repro.obs.logging import get_logger, log_event
from repro.obs.trace import tracer
from repro.runtime.server import KernelServer

_logger = get_logger(__name__)

#: Statuses a :class:`FleetResponse` can carry.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"

#: Respawn backoff for a worker slot whose processes keep dying before they
#: report ready: the first such death respawns at once, each further one
#: doubles the delay from the base, up to the cap.  A ready report resets it.
RESPAWN_BACKOFF_S = 0.1
RESPAWN_BACKOFF_MAX_S = 10.0


@dataclass(frozen=True)
class FleetResponse:
    """One answered (or refused) fleet request.

    ``status`` is ``"ok"`` for a served request, ``"rejected"`` when
    admission control refused its compile (``retry_after_s`` then carries
    the backoff hint), and ``"error"`` when serving failed (``error``
    carries the reason — an unfusable chain, an exhausted failover budget,
    or a timeout).  ``worker`` is the pool worker that compiled for this
    request, ``None`` when no compile ran for it.  ``latency_us`` is end to
    end; ``serve_us`` is the front end's serve alone (for a miss it
    includes the wait for the compile).
    """

    kind: str
    target: str
    m: int
    status: str
    worker: Optional[int] = None
    source: Optional[str] = None
    bin_m: int = 0
    latency_us: float = 0.0
    serve_us: float = 0.0
    retries: int = 0
    retry_after_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the request was served."""
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        """Whether admission control refused the request."""
        return self.status == STATUS_REJECTED


class _Rejected(Exception):
    """A miss refused by admission control."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"compile pool full; retry after {retry_after_s:.3f}s")
        self.retry_after_s = retry_after_s


class _PoolError(RuntimeError):
    """A compile task that failed for a reason other than an unfusable chain."""


@dataclass
class _Ticket:
    """Per-request context: the pin in, the compiling worker out."""

    pin: Optional[int] = None
    worker: Optional[int] = None
    retries: int = 0


#: The ticket of the fleet request the current thread is serving; model
#: serves copy it into their per-chain threads with the rest of the context.
_TICKET: "contextvars.ContextVar[Optional[_Ticket]]" = contextvars.ContextVar(
    "fleet_ticket", default=None
)


@dataclass
class _Pending:
    """Router-side bookkeeping for one dispatched compile task."""

    task_id: int
    chain: GemmChainSpec
    overrides: Dict[str, object]
    future: "Future[Dict[str, object]]"
    worker: int = -1
    retries: int = 0
    #: Trace wire context (trace_id, parent span_id, sent timestamp) riding
    #: the task tuple to the worker; ``None`` when tracing is off.
    wire: Optional[Tuple[str, str, float]] = None


class _WorkerHandle:
    """One worker slot: the live process plus its private task queue."""

    def __init__(self, worker_id: int, task_queue) -> None:
        self.worker_id = worker_id
        self.incarnation = -1
        self.process = None
        self.task_queue = task_queue
        self.ready = False
        self.inflight: set = set()
        #: Deaths before a ready report since the last one (drives backoff).
        self.failed_starts = 0
        #: Exit code of the last process that died before reporting ready.
        self.startup_exitcode: Optional[int] = None
        #: When a dead slot (``process is None``) is due to respawn.
        self.respawn_at = 0.0

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _PoolKernelServer(KernelServer):
    """The front end's kernel server: misses compile on the fleet's pool."""

    def __init__(self, fleet: "ServingFleet", **kwargs: object) -> None:
        super().__init__(**kwargs)
        self._fleet = fleet

    def _compile(
        self, chain: GemmChainSpec, overrides: Dict[str, object]
    ) -> Tuple[CompiledKernel, str]:
        source = self._fleet._run_compile(chain, overrides)
        cache, key = self._cache_slot(chain, overrides)
        kernel = cache.load_kernel(key, chain=chain) if cache is not None else None
        if kernel is None:
            raise _PoolError(
                f"the plan compiled for {chain.name} is not in the shared cache"
            )
        return kernel, source


class ServingFleet:
    """An in-process serving front end over a pool of compile workers.

    Parameters
    ----------
    config:
        A :class:`~repro.fleet.config.FleetConfig`; keyword overrides are
        applied on top (``ServingFleet(workers=4, watermark=32)``).

    Use it as a context manager (or call :meth:`start`/:meth:`close`).
    Requests are answered in the caller's thread by :attr:`front_end`, a
    :class:`~repro.graphs.server.ModelServer` over the config's shared
    plan-cache directory; only misses become compile tasks for the worker
    processes, so a worker crash loses no compiled plan.

    Example
    -------
    ::

        from repro import FleetConfig, ServingFleet

        config = FleetConfig(workers=2, cache_dir="/tmp/fleet-ns")
        with ServingFleet(config) as fleet:
            cold = fleet.serve("G4", m=100)   # compiled on a pool worker
            warm = fleet.serve("G4", m=100)   # answered in-process
            print(cold.worker, cold.source, warm.worker, warm.source)
            print(fleet.stats().to_dict()["router"]["dispatched"])
    """

    def __init__(
        self, config: Optional[FleetConfig] = None, **overrides: object
    ) -> None:
        self.config = (config or FleetConfig()).replace(**overrides)
        self._owns_cache_dir = self.config.cache_dir is None
        self.cache_dir: Optional[str] = (
            None
            if self._owns_cache_dir
            else str(self.config.cache_dir)
        )
        #: The in-process ModelServer answering every request (set by
        #: :meth:`start`).
        self.front_end: Optional[ModelServer] = None
        self._kernels: Optional[_PoolKernelServer] = None
        self._ctx = multiprocessing.get_context(self.config.start_method)
        self._handles: List[_WorkerHandle] = []
        self._result_queue = None
        self._lock = make_lock("fleet-router")
        #: Signalled on worker ready/death and stats replies; waiters take
        #: it before ``_lock``, notifiers take it after releasing ``_lock``.
        self._changed = threading.Condition()
        self._pending: Dict[int, _Pending] = {}
        self._task_ids = itertools.count()
        self._stats_replies: Dict[str, Dict[str, Dict[str, object]]] = {}
        self._stats_tokens = itertools.count()
        self._counters: Dict[str, int] = {
            "routed": 0,
            "rejected": 0,
            "retried": 0,
            "failovers": 0,
            "restarts": 0,
            "dispatched": 0,
            "duplicates": 0,
        }
        self._started = False
        self._closing = False
        self._collector: Optional[threading.Thread] = None
        self._health: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, wait: bool = True, timeout: float = 120.0) -> "ServingFleet":
        """Build the front end, spawn the workers and the router threads.

        Idempotent.  With ``wait=True`` (the default) the call returns once
        every worker has reported ready, and raises — after closing the
        fleet — if a worker exits before it does.
        """
        if self._started:
            return self
        self._started = True
        self._closing = False
        if self.cache_dir is None:
            self.cache_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        self._kernels = _PoolKernelServer(
            self,
            config=self.config.fuser_config(self.cache_dir),
            m_bins=self.config.m_bins,
        )
        self.front_end = ModelServer(server=self._kernels)
        self._result_queue = self._ctx.Queue()
        self._handles = [
            _WorkerHandle(worker_id, self._ctx.Queue())
            for worker_id in range(self.config.workers)
        ]
        with self._lock:
            for handle in self._handles:
                self._spawn(handle)
        self._collector = threading.Thread(
            target=self._collect_loop, name="fleet-collector", daemon=True
        )
        self._collector.start()
        self._health = threading.Thread(
            target=self._health_loop, name="fleet-health", daemon=True
        )
        self._health.start()
        if wait:
            try:
                self.wait_ready(timeout=timeout)
            except BaseException:
                self.close()
                raise
        return self

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until every worker reported ready.

        Raises :class:`RuntimeError` as soon as a worker process exits
        before reporting ready (naming its exit code), and
        :class:`TimeoutError` when ``timeout`` passes first.
        """

        def settled() -> bool:
            return all(handle.ready for handle in self._handles) or any(
                handle.startup_exitcode is not None for handle in self._handles
            )

        if not self._wait_for(settled, timeout):
            raise TimeoutError(f"fleet workers not ready within {timeout:.0f}s")
        for handle in self._handles:
            if handle.startup_exitcode is not None:
                raise RuntimeError(
                    f"fleet worker {handle.worker_id} exited with code "
                    f"{handle.startup_exitcode} before reporting ready"
                )

    def close(self) -> None:
        """Stop the workers, router threads and front end (idempotent)."""
        if not self._started:
            return
        self._closing = True
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            for handle in self._handles:
                handle.inflight.clear()
        for entry in pending:
            if not entry.future.done():
                entry.future.set_result({"error": "fleet closed"})
        self._notify()
        for handle in self._handles:
            if handle.alive():
                try:
                    handle.task_queue.put(("stop",))
                except (OSError, ValueError):  # lint: allow[silent-except]
                    # Best-effort shutdown: the queue may already be closed
                    # by a worker that died; join/terminate below still runs.
                    pass
        for handle in self._handles:
            if handle.process is not None:
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=2.0)
        self._started = False
        for thread in (self._collector, self._health):
            if thread is not None:
                thread.join(timeout=2.0)
        self._collector = None
        self._health = None
        if self.front_end is not None:
            self.front_end.close()
        if self._owns_cache_dir and self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def request(
        self,
        target: str,
        m: Optional[int] = None,
        *,
        kind: str = KIND_KERNEL,
        worker: Optional[int] = None,
    ) -> FleetResponse:
        """Serve one request, or refuse it under backpressure.

        ``target`` is a workload id (``kind="kernel"``) or a model-zoo
        name (``kind="model"``); ``m`` is the runtime M.  The front end
        resolves it in this thread; a miss waits for its compile on the
        pool.  When the pool already holds ``watermark`` compile tasks, a
        miss is *not* queued: the response comes back with
        ``status="rejected"`` and a ``retry_after_s`` hint (use
        :meth:`serve` for a caller that prefers to block and retry).
        ``worker`` pins this request's compiles to one worker, bypassing
        both the least-loaded choice and admission — an operational/testing
        hook, not the normal path.
        """
        if m is None or m <= 0:
            raise ValueError("request(target, m) requires a positive m")
        if kind not in (KIND_KERNEL, KIND_MODEL):
            raise ValueError(f"kind must be 'kernel' or 'model', not {kind!r}")
        if not self._started:
            raise RuntimeError("fleet is not started; use it as a context manager")
        start = time.perf_counter()
        ticket = _Ticket(pin=worker)
        token = _TICKET.set(ticket)
        response = None
        error: Optional[str] = None
        try:
            if kind == KIND_KERNEL:
                response = self._kernels.request(target, m)
            else:
                if target not in self.front_end.models():
                    self.front_end.register(target, target)  # KeyError if unknown
                response = self.front_end.serve(target, m=m)
        except _Rejected as exc:
            with self._lock:
                self._counters["rejected"] += 1
            return FleetResponse(
                kind=kind,
                target=target,
                m=m,
                status=STATUS_REJECTED,
                retry_after_s=exc.retry_after_s,
                latency_us=(time.perf_counter() - start) * 1e6,
            )
        except FusionError as exc:
            error = f"FusionError: {exc}"
        except _PoolError as exc:
            error = str(exc)
        finally:
            _TICKET.reset(token)
        with self._lock:
            self._counters["routed"] += 1
        return FleetResponse(
            kind=kind,
            target=target,
            m=m,
            status=STATUS_ERROR if error else STATUS_OK,
            worker=ticket.worker,
            source=response.source if response else None,
            bin_m=self._kernels.bin_for(m),
            latency_us=(time.perf_counter() - start) * 1e6,
            serve_us=response.latency_us if response else 0.0,
            retries=ticket.retries,
            error=error,
        )

    def serve(
        self,
        target: str,
        m: Optional[int] = None,
        *,
        kind: str = KIND_KERNEL,
        max_wait_s: Optional[float] = None,
    ) -> FleetResponse:
        """Like :meth:`request`, but block-and-retry through backpressure.

        Rejected attempts honour the router's Retry-After hint and retry
        until ``max_wait_s`` (default: the config's request timeout) is
        exhausted; the last rejection is then returned as-is, so callers
        still see an explicit ``rejected`` status rather than an
        open-ended hang.
        """
        budget = (
            max_wait_s if max_wait_s is not None else self.config.request_timeout_s
        )
        deadline = time.monotonic() + budget
        while True:
            response = self.request(target, m, kind=kind)
            if not response.rejected:
                return response
            if time.monotonic() + response.retry_after_s >= deadline:
                return response
            time.sleep(response.retry_after_s)

    # ------------------------------------------------------------------ #
    # Introspection and chaos hooks
    # ------------------------------------------------------------------ #
    def queue_depths(self) -> Dict[int, int]:
        """Dispatched-but-unfinished compile tasks per worker."""
        with self._lock:
            return {
                handle.worker_id: len(handle.inflight)
                for handle in self._handles
            }

    def alive_workers(self) -> List[int]:
        """Worker ids whose processes are currently alive."""
        with self._lock:
            return [h.worker_id for h in self._handles if h.alive()]

    def stats(self, timeout: float = 10.0) -> FleetStats:
        """Router counters, front-end stats and per-worker metrics.

        Workers answer on the ordinary result queue, so a worker stuck in
        a long compile delays its reply; after ``timeout`` the snapshot is
        returned with whichever workers answered (the router and front-end
        blocks are always complete).
        """
        token = f"stats-{next(self._stats_tokens)}"
        with self._lock:
            self._stats_replies[token] = {}
            targets = [h for h in self._handles if h.alive() and h.ready]
            for handle in targets:
                handle.task_queue.put(("stats", token))
        self._wait_for(
            lambda: len(self._stats_replies[token]) >= len(targets), timeout
        )
        with self._lock:
            per_worker = self._stats_replies.pop(token, {})
            router: Dict[str, object] = dict(self._counters)
            router["inflight"] = len(self._pending)
            router["queue_depth"] = {
                str(handle.worker_id): len(handle.inflight)
                for handle in self._handles
            }
            alive = sum(1 for handle in self._handles if handle.alive())
        return FleetStats(
            workers=self.config.workers,
            alive=alive,
            router=router,
            serving=self._kernels.stats.to_dict(),
            models=self.front_end.stats.to_dict(),
            per_worker=per_worker,
        )

    def kill_worker(self, worker_id: int) -> None:
        """Kill one worker process outright (chaos/testing hook).

        The health monitor notices, restarts the worker and fails its
        in-flight compile tasks over to the survivors — exactly the crash
        path this method exists to exercise.
        """
        with self._lock:
            process = self._handles[worker_id].process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # Compile pool
    # ------------------------------------------------------------------ #
    def _run_compile(
        self, chain: GemmChainSpec, overrides: Dict[str, object]
    ) -> str:
        """Compile ``chain`` on the pool; returns the worker's source.

        Called by the front end's miss hook under its single-flight lock.
        Raises :class:`_Rejected` past the watermark, :class:`FusionError`
        for an unfusable chain and :class:`_PoolError` for anything else.
        """
        ticket = _TICKET.get()
        pin = ticket.pin if ticket is not None else None
        future: "Future[Dict[str, object]]" = Future()
        with tracer().span("router.dispatch", chain=chain.name) as span:
            wire = tracer().wire_context()
            with self._lock:
                inflight = len(self._pending)
                if pin is None and inflight >= self.config.watermark:
                    excess = inflight - self.config.watermark
                    span.set("rejected", True)
                    raise _Rejected(
                        self.config.retry_after_s
                        * (1.0 + excess / self.config.watermark)
                    )
                pending = _Pending(
                    task_id=next(self._task_ids),
                    chain=chain,
                    overrides=dict(overrides),
                    future=future,
                    wire=wire,
                )
                self._counters["dispatched"] += 1
                self._dispatch(pending, self._pick_handle(pin))
            span.set("worker", pending.worker)
        try:
            payload = future.result(timeout=self.config.request_timeout_s)
        except FutureTimeoutError:
            with self._lock:
                self._pending.pop(pending.task_id, None)
                for handle in self._handles:
                    handle.inflight.discard(pending.task_id)
            payload = {
                "error": f"timed out after {self.config.request_timeout_s:.0f}s"
            }
        if ticket is not None:
            ticket.worker = payload.get("worker", pending.worker)
            ticket.retries = max(ticket.retries, pending.retries)
        error = payload.get("error")
        if error:
            raise (FusionError if payload.get("unfusable") else _PoolError)(error)
        return str(payload["source"])

    def _pick_handle(self, pin: Optional[int]) -> _WorkerHandle:
        """The pinned worker, else the least-loaded live one (lock held)."""
        if pin is not None:
            return self._handles[pin]
        live = [handle for handle in self._handles if handle.alive()]
        # With every worker mid-restart, queue on the least-loaded slot.
        return min(
            live or self._handles,
            key=lambda handle: (len(handle.inflight), handle.worker_id),
        )

    def _dispatch(self, pending: _Pending, handle: _WorkerHandle) -> None:
        """Send one compile task to one worker (caller holds the lock).

        The task tuple is ``("compile", task_id, chain, overrides)``,
        extended with the trace wire context as an optional fifth element
        when the request carries one (workers tolerate both arities).
        """
        pending.worker = handle.worker_id
        self._pending[pending.task_id] = pending
        handle.inflight.add(pending.task_id)
        task = ("compile", pending.task_id, pending.chain, pending.overrides)
        if pending.wire is not None:
            task = task + (pending.wire,)
        handle.task_queue.put(task)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _wait_for(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Wait until ``predicate()`` (evaluated under the lock) holds."""
        deadline = time.monotonic() + timeout
        with self._changed:
            while True:
                with self._lock:
                    if predicate():
                        return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._changed.wait(remaining)

    def _notify(self) -> None:
        with self._changed:
            self._changed.notify_all()

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) one worker process (caller holds the lock)."""
        handle.incarnation += 1
        handle.ready = False
        if handle.incarnation > 0:
            self._counters["restarts"] += 1
        handle.process = self._ctx.Process(
            target=worker_main,
            args=(
                handle.worker_id,
                handle.incarnation,
                self.config.to_dict(),
                self.cache_dir,
                handle.task_queue,
                self._result_queue,
            ),
            name=f"fleet-worker-{handle.worker_id}",
            daemon=True,
        )
        handle.process.start()
        log_event(
            _logger,
            "worker-start" if handle.incarnation == 0 else "worker-respawn",
            worker=handle.worker_id,
            incarnation=handle.incarnation,
            pid=handle.process.pid,
        )

    # ----------------------------- threads ---------------------------- #
    def _collect_loop(self) -> None:
        while not self._closing:
            try:
                message = self._result_queue.get(timeout=0.1)
            except Exception:  # noqa: BLE001 — queue.Empty or EOF on close
                continue
            op = message[0]
            if op == "result":
                self._on_result(message)
            elif op == "ready":
                self._on_ready(message)
            elif op == "stats":
                self._on_stats(message)

    def _on_result(self, message) -> None:
        _, worker_id, _incarnation, task_id, payload = message
        payload = dict(payload)
        payload["worker"] = worker_id
        with self._lock:
            pending = self._pending.pop(task_id, None)
            for handle in self._handles:
                handle.inflight.discard(task_id)
            if pending is None:
                self._counters["duplicates"] += 1
                return
        if not pending.future.done():
            pending.future.set_result(payload)

    def _on_ready(self, message) -> None:
        _, worker_id, incarnation = message
        with self._lock:
            handle = self._handles[worker_id]
            if incarnation == handle.incarnation:
                handle.ready = True
                handle.failed_starts = 0
                handle.startup_exitcode = None
        self._notify()

    def _on_stats(self, message) -> None:
        _, worker_id, _incarnation, token, payload = message
        with self._lock:
            replies = self._stats_replies.get(token)
            if replies is not None:
                replies[str(worker_id)] = payload
        self._notify()

    def _health_loop(self) -> None:
        """Wake on any worker exit (or a due respawn) and handle it."""
        while not self._closing:
            with self._lock:
                sentinels = [
                    handle.process.sentinel
                    for handle in self._handles
                    if handle.process is not None
                ]
                due = [
                    handle.respawn_at
                    for handle in self._handles
                    if handle.process is None
                ]
            timeout = self.config.health_interval_s
            if due:
                timeout = min(timeout, max(0.0, min(due) - time.monotonic()))
            multiprocessing.connection.wait(sentinels, timeout=timeout)
            if self._closing:
                return
            for handle in list(self._handles):
                if handle.process is not None and not handle.process.is_alive():
                    self._handle_death(handle)
                elif handle.process is None and time.monotonic() >= handle.respawn_at:
                    with self._lock:
                        if not self._closing and handle.process is None:
                            self._spawn(handle)

    def _handle_death(self, handle: _WorkerHandle) -> None:
        """Schedule a dead worker's respawn and fail its tasks over."""
        with self._lock:
            if self._closing or handle.process is None or handle.alive():
                return
            exitcode = handle.process.exitcode
            delay = 0.0
            if handle.failed_starts:
                delay = min(
                    RESPAWN_BACKOFF_MAX_S,
                    RESPAWN_BACKOFF_S * 2 ** (handle.failed_starts - 1),
                )
            if not handle.ready:
                handle.failed_starts += 1
                handle.startup_exitcode = exitcode
            orphaned = [
                self._pending[task_id]
                for task_id in sorted(handle.inflight)
                if task_id in self._pending
            ]
            handle.inflight.clear()
            if orphaned:
                self._counters["failovers"] += 1
            log_event(
                _logger,
                "worker-death",
                level=logging.WARNING,
                worker=handle.worker_id,
                incarnation=handle.incarnation,
                exitcode=exitcode,
                orphaned=len(orphaned),
                respawn_in_s=delay,
            )
            # Tasks queued for the dead incarnation were failed over below;
            # its successor starts from an empty queue.
            handle.process = None
            handle.ready = False
            handle.task_queue = self._ctx.Queue()
            handle.respawn_at = time.monotonic() + delay
            if delay == 0.0:
                self._spawn(handle)
            for pending in orphaned:
                self._fail_over(pending, handle)
        self._notify()

    def _fail_over(self, pending: _Pending, dead: _WorkerHandle) -> None:
        """Re-dispatch one orphaned compile task (caller holds the lock)."""
        pending.retries += 1
        self._pending.pop(pending.task_id, None)
        if pending.retries > self.config.max_retries:
            if not pending.future.done():
                pending.future.set_result(
                    {
                        "error": (
                            "failover budget exhausted after "
                            f"{pending.retries - 1} retries"
                        )
                    }
                )
            return
        self._counters["retried"] += 1
        survivors = [
            other
            for other in self._handles
            if other.alive() and other is not dead
        ]
        # A single-worker fleet queues on the dead slot for its successor.
        target = min(
            survivors or [dead],
            key=lambda handle: (len(handle.inflight), handle.worker_id),
        )
        self._dispatch(pending, target)
