"""Span-based request tracing with cross-thread/process propagation.

One request through the serving stack crosses a thread pool (the bench
driver), a router, a process boundary (fleet workers), a kernel server, a
two-tier cache and a search engine.  This module correlates all of it:
every layer opens a :class:`Span` under the ambient trace context, and the
exported span records stitch back into one end-to-end trace per request.

Design points, in the same spirit as :mod:`repro.analysis.locks`:

* **Zero overhead when off.**  Tracing is enabled by ``REPRO_TRACE=1``
  at import (or :func:`enable`); when off, :meth:`Tracer.span` returns a
  shared no-op scope and touches no clock or environment.  Obs knobs are
  plan-neutral — they can never alter a cache key or a selected plan.
* **Deterministic IDs.**  Trace and span IDs are per-process counters
  prefixed with a process tag (``main``, ``w0-i1``, ...) — no randomness,
  which keeps the deterministic-layer lint meaningful and makes span files
  reproducible modulo thread interleaving.
* **Context propagation.**  The ambient context is a thread-local stack;
  :meth:`Tracer.capture`/:meth:`Tracer.activate` carry it across thread
  pools, and :meth:`Tracer.wire_context`/:meth:`Tracer.adopt` carry it
  across the fleet's process-boundary task tuples (the wire form also
  carries the send timestamp so workers can emit queue-wait spans).
* **Wall-clock timestamps.**  Spans record ``time.time()`` microseconds so
  spans from different processes line up on one timeline; the lint
  nondeterminism allowlist sanctions exactly this module's clock reads.

Exported span files are JSONL (one span per line) and convert to Chrome
trace-event JSON via :func:`repro.obs.summary.to_chrome_trace` for
Perfetto.  Usage::

    from repro.obs import trace

    trace.enable(out_dir="traces")
    with trace.tracer().root("request", target="G4") as span:
        with trace.tracer().span("cache.lookup", tier="memory"):
            ...
    trace.tracer().flush()
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Environment variable turning tracing on at process start (``1``/``true``/
#: ``on``); spawned fleet workers inherit it.
ENV_VAR = "REPRO_TRACE"

#: Directory span files are flushed into (``spans-<process tag>.jsonl``,
#: one file per process).  Inherited by spawned fleet workers, which is how
#: a multi-process replay lands all its spans in one place.
ENV_DIR = "REPRO_TRACE_DIR"

#: Process tag override (defaults to ``main``; fleet workers set their own).
ENV_TAG = "REPRO_TRACE_TAG"

_tls = threading.local()


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() in ("1", "true", "on")


#: The tracing flag: read from :data:`ENV_VAR` at import (and by
#: :func:`reset`), set by :func:`enable` / :func:`disable`.  Every span site
#: asks :func:`enabled`, so it is a variable read, not an environment lookup.
_enabled: bool = _env_enabled()


def enabled() -> bool:
    """Whether tracing is currently active."""
    return _enabled


def enable(out_dir: Optional[Union[str, os.PathLike]] = None) -> None:
    """Turn tracing on for this process *and* its spawned workers.

    Parameters
    ----------
    out_dir:
        Optional span-file directory, published via :data:`ENV_DIR` so
        fleet worker processes (which inherit the environment) flush their
        span files next to this process's.
    """
    global _enabled
    _enabled = True
    os.environ[ENV_VAR] = "1"
    if out_dir is not None:
        os.environ[ENV_DIR] = os.fspath(out_dir)


def disable() -> None:
    """Turn tracing off (and stop advertising it to spawned workers)."""
    global _enabled
    _enabled = False
    os.environ.pop(ENV_VAR, None)


def reset() -> None:
    """Re-read :data:`ENV_VAR`, forgetting :func:`enable`/:func:`disable`.

    The flag is read from the environment only at import and here, so an
    ``os.environ`` change made mid-process takes effect on ``reset()``.
    """
    global _enabled
    _enabled = _env_enabled()


def _now_us() -> float:
    # Wall clock, deliberately: spans from different processes must share
    # one timeline.  Sanctioned by the lint nondeterminism allowlist.
    return time.time() * 1e6


def now_us() -> float:
    """Current wall-clock time in span-timestamp microseconds.

    For instrumentation sites outside this module that need timestamps on
    the span timeline (e.g. :meth:`Tracer.emit` callers) — the clock read
    stays confined to this module, which the lint nondeterminism allowlist
    sanctions.
    """
    return _now_us()


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of an in-flight span.

    Parameters
    ----------
    trace_id:
        The end-to-end request trace this span belongs to.
    span_id:
        The span itself (children created under this context use it as
        their ``parent_id``).
    """

    trace_id: str
    span_id: str


class Span:
    """One timed operation; records start/end wall-clock microseconds.

    Spans are created via :meth:`Tracer.root`/:meth:`Tracer.span` (as
    context managers) and carry free-form ``attrs`` set at creation or via
    :meth:`set`.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "process",
        "thread",
        "start_us",
        "end_us",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        process: str,
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.process = process
        self.thread = threading.current_thread().name
        self.start_us = _now_us()
        self.end_us: Optional[float] = None
        self.attrs = attrs

    def set(self, key: str, value: object) -> None:
        """Attach one attribute to the span."""
        self.attrs[key] = value

    def context(self) -> SpanContext:
        """This span's propagatable context."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> Dict[str, object]:
        """JSONL record form (pinned key order)."""
        end_us = self.end_us if self.end_us is not None else self.start_us
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "process": self.process,
            "thread": self.thread,
            "start_us": self.start_us,
            "dur_us": end_us - self.start_us,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
        }


class _NullSpan:
    """Shared no-op span handed out while tracing is off."""

    __slots__ = ()
    trace_id = None
    span_id = None
    parent_id = None

    def set(self, key: str, value: object) -> None:
        """Discard the attribute (tracing is off)."""

    def context(self) -> None:
        """No context to propagate (tracing is off)."""
        return None


NULL_SPAN = _NullSpan()


class _NullScope:
    """Reusable no-op context manager (the off-path of every scope API)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class _SpanScope:
    """Context manager pushing one live span onto the thread-local stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        _stack().append(self._span)
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        self._span.end_us = _now_us()
        stack = _stack()
        if stack and stack[-1] is self._span:
            stack.pop()
        self._tracer._record(self._span)
        return False


class _ContextScope:
    """Context manager installing a remote/captured context as the parent."""

    __slots__ = ("_ctx",)

    def __init__(self, ctx: SpanContext) -> None:
        self._ctx = ctx

    def __enter__(self) -> SpanContext:
        _stack().append(self._ctx)
        return self._ctx

    def __exit__(self, *exc_info: object) -> bool:
        stack = _stack()
        if stack and stack[-1] is self._ctx:
            stack.pop()
        return False


def _stack() -> List[object]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class Tracer:
    """Per-process span factory, context carrier, and span buffer.

    One instance per process (see :func:`tracer`); every layer of the
    stack calls :meth:`span` with the layer's operation name and lets the
    thread-local context stack wire up parentage.  Usage::

        with tracer().root("request", target="G4", m=64) as root:
            with tracer().span("server.resolve") as child:
                child.set("source", "table")
        tracer().flush("trace.jsonl")

    Parameters
    ----------
    process_tag:
        Short identifier baked into every ID and span record (``main`` in
        the primary process; fleet workers use ``w<id>-i<incarnation>``).
        Defaults to :data:`ENV_TAG` or ``"main"``.
    """

    def __init__(self, process_tag: Optional[str] = None) -> None:
        self.process_tag = (
            process_tag
            if process_tag is not None
            else os.environ.get(ENV_TAG, "main")
        )
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._buffer: List[Dict[str, object]] = []
        self._buffer_lock = threading.Lock()

    # -- ID generation --------------------------------------------------- #
    def _new_trace_id(self) -> str:
        return f"{self.process_tag}-t{next(self._trace_ids):05d}"

    def _new_span_id(self) -> str:
        return f"{self.process_tag}-s{next(self._span_ids):06d}"

    # -- span creation --------------------------------------------------- #
    def root(self, name: str, **attrs: object):
        """Open a span that *starts a new trace* (one per request).

        Parameters
        ----------
        name:
            Operation name (see the span taxonomy in
            ``docs/OBSERVABILITY.md``).
        """
        if not enabled():
            return _NULL_SCOPE
        span = Span(
            name=name,
            trace_id=self._new_trace_id(),
            span_id=self._new_span_id(),
            parent_id=None,
            process=self.process_tag,
            attrs=dict(attrs),
        )
        return _SpanScope(self, span)

    def span(self, name: str, **attrs: object):
        """Open a child span under the ambient context (or a fresh trace).

        Parameters
        ----------
        name:
            Operation name (see the span taxonomy in
            ``docs/OBSERVABILITY.md``).
        """
        if not enabled():
            return _NULL_SCOPE
        parent = self.current()
        span = Span(
            name=name,
            trace_id=(
                parent.trace_id if parent is not None else self._new_trace_id()
            ),
            span_id=self._new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            process=self.process_tag,
            attrs=dict(attrs),
        )
        return _SpanScope(self, span)

    def emit(
        self,
        name: str,
        start_us: float,
        end_us: float,
        parent: Optional[SpanContext] = None,
        **attrs: object,
    ) -> None:
        """Record an already-timed span (e.g. a queue wait) directly.

        Parameters
        ----------
        name:
            Operation name.
        start_us:
            Wall-clock start in microseconds (``time.time() * 1e6`` scale).
        end_us:
            Wall-clock end in microseconds.
        parent:
            Explicit parent context; defaults to the ambient one.
        """
        if not enabled():
            return
        parent = parent if parent is not None else self.current()
        span = Span(
            name=name,
            trace_id=(
                parent.trace_id if parent is not None else self._new_trace_id()
            ),
            span_id=self._new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            process=self.process_tag,
            attrs=dict(attrs),
        )
        span.start_us = start_us
        span.end_us = max(start_us, end_us)
        self._record(span)

    # -- context propagation --------------------------------------------- #
    def current(self) -> Optional[SpanContext]:
        """The ambient span context of the calling thread (or ``None``)."""
        stack = _stack()
        if not stack:
            return None
        top = stack[-1]
        if isinstance(top, SpanContext):
            return top
        return top.context()  # type: ignore[union-attr]

    def capture(self) -> Optional[SpanContext]:
        """Snapshot the ambient context for another thread to activate."""
        if not enabled():
            return None
        return self.current()

    def activate(self, ctx: Optional[SpanContext]):
        """Install a captured context as this thread's ambient parent.

        Parameters
        ----------
        ctx:
            A context from :meth:`capture` (``None`` is a no-op scope, so
            pool workers can activate unconditionally).
        """
        if ctx is None or not enabled():
            return _NULL_SCOPE
        return _ContextScope(ctx)

    def wire_context(self) -> Optional[Tuple[str, str, float]]:
        """The ambient context as a process-boundary wire tuple.

        Returns ``(trace_id, span_id, sent_us)`` — the timestamp lets the
        receiving worker emit a queue-wait span — or ``None`` when tracing
        is off or no context is active (the fleet protocol ships the
        ``None`` and the worker side no-ops).
        """
        if not enabled():
            return None
        ctx = self.current()
        if ctx is None:
            return None
        return (ctx.trace_id, ctx.span_id, _now_us())

    def adopt(self, wire: Optional[Tuple[str, str, float]]):
        """Activate a :meth:`wire_context` tuple received from another process.

        Parameters
        ----------
        wire:
            The wire tuple (or ``None``, yielding a no-op scope).
        """
        if wire is None or not enabled():
            return _NULL_SCOPE
        trace_id, span_id = str(wire[0]), str(wire[1])
        return _ContextScope(SpanContext(trace_id=trace_id, span_id=span_id))

    # -- buffering and export -------------------------------------------- #
    def _record(self, span: Span) -> None:
        with self._buffer_lock:
            self._buffer.append(span.to_dict())

    def spans(self) -> List[Dict[str, object]]:
        """A snapshot of the buffered (finished, unflushed) span records."""
        with self._buffer_lock:
            return list(self._buffer)

    def clear(self) -> None:
        """Drop all buffered spans (test helper)."""
        with self._buffer_lock:
            self._buffer.clear()

    def default_path(self) -> Optional[Path]:
        """Where :meth:`flush` writes when no path is given."""
        directory = os.environ.get(ENV_DIR)
        if not directory:
            return None
        return Path(directory) / f"spans-{self.process_tag}.jsonl"

    def flush(
        self, path: Optional[Union[str, os.PathLike]] = None
    ) -> Optional[Path]:
        """Append buffered spans to a JSONL file and clear the buffer.

        Parameters
        ----------
        path:
            Target file; defaults to ``spans-<tag>.jsonl`` under
            :data:`ENV_DIR`.  With neither, the buffer is kept and ``None``
            is returned.
        """
        target = Path(path) if path is not None else self.default_path()
        if target is None:
            return None
        with self._buffer_lock:
            records = list(self._buffer)
            self._buffer.clear()
        if not records:
            return target
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=False) + "\n")
        return target


_tracer: Optional[Tracer] = None
_tracer_lock = threading.Lock()


def _atexit_flush() -> None:
    if _tracer is not None and enabled():
        _tracer.flush()


def tracer() -> Tracer:
    """The process-wide :class:`Tracer` singleton (created on first use)."""
    global _tracer
    if _tracer is None:
        with _tracer_lock:
            if _tracer is None:
                _tracer = Tracer()
                atexit.register(_atexit_flush)
    return _tracer


def set_process_tag(tag: str) -> None:
    """Re-tag this process's tracer (fleet workers call this at startup).

    Parameters
    ----------
    tag:
        The new process tag (e.g. ``"w0-i1"``); also published to
        :data:`ENV_TAG` so late-created tracers agree.
    """
    os.environ[ENV_TAG] = tag
    tracer().process_tag = tag
