"""Span recording around the program's public entry points.

The traced pass of each workload installs wrappers from this file around
the calls into every layer (the program itself is left untouched).  Each
wrapper records one :class:`Span`: its layer name, start and end, the span
that caused it and the request it belongs to.  Spans stay in memory until
the run ends; :func:`layer_table` then reduces them to calls, busy time and
self time per layer, where self time is a span's duration minus the part
of it that its child spans cover.

Parents are tracked per thread.  A span opened on a thread with no open
span starts a new request; the workloads drive each request from one
thread, so every layer a request reaches is stitched under it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One call into one layer."""

    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent: Optional[int]
    request: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects spans in memory; thread-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``before(args, kwargs)`` may capture state ahead of the call, and
        ``after(state, args, kwargs, result)`` returns attributes for the
        span; neither runs inside the timed interval.
        """
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
            request = stack[-1][1] if stack else next(self._requests)
        parent = stack[-1][0] if stack else None
        state = before(args, kwargs) if before is not None else None
        stack.append((span_id, request))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = time.perf_counter_ns()
            stack.pop()
            self._add(Span(name, start, end, span_id, parent, request,
                           {"error": type(exc).__name__}))
            raise
        end = time.perf_counter_ns()
        stack.pop()
        attrs = after(state, args, kwargs, result) if after is not None else {}
        self._add(Span(name, start, end, span_id, parent, request, attrs or {}))
        return result

    def _add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module:attr`` or ``module:Class.method``."""

    path: str
    layer: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _resolve(path: str) -> Tuple[object, str]:
    module_name, _, attr_path = path.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrapper(recorder: SpanRecorder, target: Target, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        return recorder.call(
            target.layer, original, args, kwargs, target.before, target.after
        )

    return wrapped


class Installed:
    """Wrappers in place; :meth:`remove` restores every original."""

    def __init__(self, recorder: SpanRecorder, targets: Sequence[Target]) -> None:
        self._originals: List[Tuple[object, str, Callable]] = []
        try:
            for target in targets:
                owner, attr = _resolve(target.path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._originals.append((owner, attr, original))
                setattr(owner, attr, _wrapper(recorder, target, original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()


# --------------------------------------------------------------------- #
# Reduction
# --------------------------------------------------------------------- #
def covered_ns(interval: Tuple[int, int], children: Iterable[Tuple[int, int]]) -> int:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in children
        if min(hi, end) > max(lo, start)
    )
    total = 0
    cur_start: Optional[int] = None
    cur_end = 0
    for start, end in clipped:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time (ns) of every span: duration minus child coverage."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return {
        span.span_id: span.duration_ns
        - covered_ns((span.start_ns, span.end_ns), children.get(span.span_id, ()))
        for span in spans
    }


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, ``busy_ns`` and ``self_ns``.

    Busy time sums the outermost spans of each layer, so a layer calling
    itself (a simulator entry point calling another) is not counted twice;
    self time sums every span's own time and is never double-counted.
    """
    by_id = {span.span_id: span for span in spans}
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["self_ns"] += selfs[span.span_id]
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if ancestor is None:
            row["busy_ns"] += span.duration_ns
    return table


def durations_us(spans: Sequence[Span], name: str, **attrs: object) -> List[float]:
    """Durations (us) of the spans of layer ``name`` matching ``attrs``."""
    return [
        span.duration_ns / 1e3
        for span in spans
        if span.name == name
        and all(span.attrs.get(key) == value for key, value in attrs.items())
    ]
