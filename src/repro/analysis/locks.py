"""Lock-order race detector.

The serving stack coordinates a dozen ``threading.Lock``/``RLock``
instances across :mod:`repro.runtime`, :mod:`repro.graphs` and
:mod:`repro.fleet`.  Their safety rests on two conventions that nothing
machine-checks at runtime: locks are acquired in a consistent order (no
cycles, hence no deadlock), and guarded state is only touched while its
lock is held.  This module turns both conventions into checks:

* :class:`OrderedLock` is a drop-in wrapper around ``threading.Lock`` /
  ``RLock`` that records the cross-thread acquisition graph in a
  process-wide :class:`LockMonitor`.  Acquiring lock *B* while holding
  lock *A* adds the edge ``A -> B``; a new edge that closes a cycle is a
  potential deadlock and is reported as a violation.  Acquiring a
  non-reentrant :class:`OrderedLock` twice from one thread raises
  immediately instead of deadlocking the process.
* :func:`require_held` asserts that the calling thread holds a lock —
  helpers that mutate shared state under a caller-held lock use it to
  detect unguarded access if a future refactor drops the ``with`` block.
* :func:`make_lock` is the factory the instrumented modules call instead
  of ``threading.Lock()``.  It returns a plain (zero-overhead) lock unless
  instrumentation is enabled — via :func:`enable` or the
  ``REPRO_LOCK_CHECK`` environment variable (``1``/``record`` to record
  violations, ``strict`` to raise on them) — so production serving pays
  nothing for the detector's existence.

The monitor tracks lock *instances*, not lock names: two ``PlanCache``
instances whose locks two threads take in opposite orders are a real
inversion and are caught, while unrelated instances that merely share a
class never alias.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Dict, List, Optional, Set, Tuple, Union

#: Environment variable controlling instrumentation at process start.
ENV_VAR = "REPRO_LOCK_CHECK"

MODE_OFF = "off"
MODE_RECORD = "record"
MODE_STRICT = "strict"

_uid_counter = itertools.count(1)
_tls = threading.local()

#: Explicit override set by :func:`enable` / :func:`disable`; ``None``
#: defers to the environment variable.
_mode_override: Optional[str] = None


class LockOrderError(RuntimeError):
    """A lock-ordering violation detected by :class:`LockMonitor`.

    Raised eagerly in ``strict`` mode (and always for same-thread
    re-acquisition of a non-reentrant lock, which would otherwise deadlock
    the process on the spot).
    """


class UnguardedAccessError(LockOrderError):
    """Shared state was accessed without holding its guarding lock."""


def _env_mode() -> str:
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value in ("1", "true", "on", MODE_RECORD):
        return MODE_RECORD
    if value == MODE_STRICT:
        return MODE_STRICT
    return MODE_OFF


def mode() -> str:
    """The effective instrumentation mode (``off``/``record``/``strict``)."""
    if _mode_override is not None:
        return _mode_override
    return _env_mode()


def enabled() -> bool:
    """Whether lock instrumentation is currently active."""
    return mode() != MODE_OFF


def enable(strict: bool = False) -> None:
    """Turn instrumentation on for locks created from now on.

    Parameters
    ----------
    strict:
        When true, violations raise :class:`LockOrderError` at the
        offending acquisition; otherwise they are recorded on the monitor
        for later inspection via :meth:`LockMonitor.violations`.
    """
    global _mode_override
    _mode_override = MODE_STRICT if strict else MODE_RECORD


def disable() -> None:
    """Turn instrumentation off for locks created from now on."""
    global _mode_override
    _mode_override = MODE_OFF


def _held_stack() -> List["OrderedLock"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class LockMonitor:
    """Process-wide acquisition-graph recorder shared by all OrderedLocks.

    Nodes are live :class:`OrderedLock` instances (by uid); a directed
    edge ``A -> B`` means some thread acquired *B* while holding *A*.  A
    cycle in this graph is a potential deadlock: two threads walking the
    cycle from different entry points can block each other forever.

    Example
    -------
    ::

        from repro.analysis.locks import lock_monitor

        monitor = lock_monitor()
        monitor.reset()
        ...  # run the concurrent workload
        assert monitor.violations() == []
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._names: Dict[int, str] = {}
        self._edges: Dict[int, Set[int]] = {}
        self._violations: List[str] = []
        self.acquisitions = 0
        self.max_depth = 0

    # -- recording ----------------------------------------------------- #
    def record_acquire(
        self, held: List["OrderedLock"], acquiring: "OrderedLock"
    ) -> Optional[str]:
        """Record one acquisition; returns a violation message on a cycle."""
        with self._lock:
            self.acquisitions += 1
            self.max_depth = max(self.max_depth, len(held) + 1)
            self._names[acquiring.uid] = acquiring.name
            message: Optional[str] = None
            for holder in held:
                self._names[holder.uid] = holder.name
                targets = self._edges.setdefault(holder.uid, set())
                if acquiring.uid in targets:
                    continue
                if self._reaches(acquiring.uid, holder.uid):
                    message = (
                        "lock-order cycle: acquiring "
                        f"{acquiring.name!r} while holding {holder.name!r}, "
                        f"but {acquiring.name!r} is already ordered before "
                        f"{holder.name!r}"
                    )
                    self._violations.append(message)
                targets.add(acquiring.uid)
            return message

    def record_violation(self, message: str) -> None:
        """Record a violation detected outside the edge walk."""
        with self._lock:
            self._violations.append(message)

    def _reaches(self, source: int, target: int) -> bool:
        """Whether ``target`` is reachable from ``source`` (DFS, no lock)."""
        seen: Set[int] = set()
        frontier = [source]
        while frontier:
            node = frontier.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._edges.get(node, ()))
        return False

    # -- inspection ---------------------------------------------------- #
    def violations(self) -> List[str]:
        """All recorded ordering/guard violations, oldest first."""
        with self._lock:
            return list(self._violations)

    def edges(self) -> List[Tuple[str, str]]:
        """The acquisition graph as (holder name, acquired name) pairs."""
        with self._lock:
            return sorted(
                (self._names[src], self._names[dst])
                for src, targets in self._edges.items()
                for dst in targets
            )

    def reset(self) -> None:
        """Drop the recorded graph, counters and violations."""
        with self._lock:
            self._names.clear()
            self._edges.clear()
            self._violations.clear()
            self.acquisitions = 0
            self.max_depth = 0

    def assert_clean(self) -> None:
        """Raise :class:`LockOrderError` if any violation was recorded."""
        found = self.violations()
        if found:
            raise LockOrderError(
                f"{len(found)} lock violation(s):\n" + "\n".join(found)
            )


_monitor = LockMonitor()


def lock_monitor() -> LockMonitor:
    """The process-wide :class:`LockMonitor` singleton."""
    return _monitor


class OrderedLock:
    """A ``threading.Lock``/``RLock`` that reports ordering violations.

    Drop-in for the stdlib locks (``acquire``/``release``/context
    manager).  Every acquisition is recorded on the process-wide
    :class:`LockMonitor`; closing a cycle in the acquisition graph is a
    violation (raised in strict mode, recorded otherwise), and re-entering
    a non-reentrant OrderedLock from the owning thread raises
    :class:`LockOrderError` instead of deadlocking.

    Parameters
    ----------
    name:
        Diagnostic label used in violation messages (instances are always
        distinguished internally, so names may repeat).
    reentrant:
        Back the wrapper with an ``RLock`` instead of a ``Lock``.

    Example
    -------
    >>> a, b = OrderedLock("a"), OrderedLock("b")
    >>> with a:
    ...     with b:
    ...         b.held_by_current_thread()
    True
    """

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = name
        self.reentrant = reentrant
        self.uid = next(_uid_counter)
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def held_by_current_thread(self) -> bool:
        """Whether the calling thread currently holds this lock."""
        return any(lock is self for lock in _held_stack())

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying lock, recording the ordering edge."""
        stack = _held_stack()
        if self.held_by_current_thread():
            if not self.reentrant:
                # Raising is the only useful behaviour: proceeding would
                # deadlock this thread on its own lock.
                message = (
                    f"same-thread re-acquisition of non-reentrant lock "
                    f"{self.name!r}"
                )
                _monitor.record_violation(message)
                raise LockOrderError(message)
        else:
            # One edge per distinct held lock; duplicates are deduplicated
            # by the monitor.
            message = _monitor.record_acquire(stack, self)
            if message is not None and mode() == MODE_STRICT:
                raise LockOrderError(message)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            stack.append(self)
        return acquired

    def release(self) -> None:
        """Release the underlying lock and pop it from the held stack."""
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._inner.release()

    def require_held(self) -> None:
        """Report a violation if the calling thread does not hold the lock."""
        if self.held_by_current_thread():
            return
        message = (
            f"unguarded shared-state access: lock {self.name!r} not held "
            f"by thread {threading.current_thread().name!r}"
        )
        _monitor.record_violation(message)
        if mode() == MODE_STRICT:
            raise UnguardedAccessError(message)

    def __enter__(self) -> "OrderedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        kind = "RLock" if self.reentrant else "Lock"
        return f"OrderedLock({self.name!r}, {kind}, uid={self.uid})"


#: Anything :func:`make_lock` can return.
AnyLock = Union[OrderedLock, threading.Lock, "threading.RLock"]


def make_lock(name: str, reentrant: bool = False) -> AnyLock:
    """Create a lock, instrumented when lock checking is enabled.

    Parameters
    ----------
    name:
        Diagnostic label for violation messages (ignored when
        instrumentation is off).
    reentrant:
        Return an ``RLock`` (or reentrant :class:`OrderedLock`).

    Example
    -------
    ::

        from repro.analysis.locks import make_lock

        class Cache:
            def __init__(self):
                self._lock = make_lock("cache", reentrant=True)
    """
    if enabled():
        return OrderedLock(name, reentrant=reentrant)
    return threading.RLock() if reentrant else threading.Lock()


def require_held(lock: object) -> None:
    """Assert the calling thread holds ``lock`` when it is instrumented.

    A no-op for plain stdlib locks, so guarded helpers can call this
    unconditionally; with instrumentation enabled a miss is recorded (or
    raised in strict mode) as unguarded shared-state access.

    Parameters
    ----------
    lock:
        The lock expected to be held (any :func:`make_lock` product).
    """
    if isinstance(lock, OrderedLock):
        lock.require_held()
