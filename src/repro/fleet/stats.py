"""Fleet-level metrics snapshot.

:class:`FleetStats` is the one observable view of a running
:class:`~repro.fleet.router.ServingFleet`: router counters (routed,
rejected, retried, failovers, restarts, dispatched compile tasks,
per-worker queue depths), the front end's kernel- and model-level
:class:`~repro.runtime.stats.ServingStats`, and each compile worker's own
payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

#: Pinned key order of the ``router`` block in :meth:`FleetStats.to_dict`.
ROUTER_KEYS = (
    "routed",
    "rejected",
    "retried",
    "failovers",
    "restarts",
    "dispatched",
    "duplicates",
    "inflight",
    "queue_depth",
)


@dataclass
class FleetStats:
    """One snapshot of a serving fleet's health and traffic.

    Parameters
    ----------
    workers:
        Configured compile-pool size.
    alive:
        Workers whose processes were alive at snapshot time.
    router:
        Router counters (see :data:`ROUTER_KEYS`) including per-worker
        queue depths at snapshot time.
    serving:
        The front end's kernel-level :meth:`ServingStats.to_dict` — every
        request the fleet answered, whichever tier resolved it.
    models:
        The front end's model-level :meth:`ServingStats.to_dict`.
    per_worker:
        Raw per-worker payloads (compile count, plan-cache stats), keyed by
        worker id as a string.

    Example
    -------
    >>> stats = FleetStats(
    ...     workers=1, alive=1,
    ...     router={"routed": 2, "rejected": 0},
    ...     per_worker={"0": {"compiles": 1}},
    ... )
    >>> stats.to_dict()["workers"], stats.to_dict()["router"]["routed"]
    (1, 2)
    """

    workers: int
    alive: int
    router: Dict[str, object] = field(default_factory=dict)
    serving: Dict[str, object] = field(default_factory=dict)
    models: Dict[str, object] = field(default_factory=dict)
    per_worker: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def restarts(self) -> int:
        """Worker processes respawned by the health monitor."""
        return int(self.router.get("restarts", 0))

    def to_dict(self) -> Dict[str, object]:
        """Plain-dictionary form with a pinned top-level key order.

        Key order is ``workers``, ``alive``, ``router`` (its keys in
        :data:`ROUTER_KEYS` order), ``serving`` (the front end's
        kernel-level stats), ``models`` (its model-level stats) and
        ``per_worker`` (sorted by worker id) — so two snapshots of equal
        state serialize identically and fleet artifacts diff cleanly.
        """
        router = {
            key: self.router[key] for key in ROUTER_KEYS if key in self.router
        }
        for key in sorted(set(self.router) - set(ROUTER_KEYS)):
            router[key] = self.router[key]
        if isinstance(router.get("queue_depth"), Mapping):
            router["queue_depth"] = {
                key: router["queue_depth"][key]
                for key in sorted(router["queue_depth"], key=int)
            }
        return {
            "workers": self.workers,
            "alive": self.alive,
            "router": router,
            "serving": dict(self.serving),
            "models": dict(self.models),
            "per_worker": {
                key: self.per_worker[key]
                for key in sorted(self.per_worker, key=int)
            },
        }
