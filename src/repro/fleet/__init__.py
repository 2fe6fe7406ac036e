"""Serving fleet: an in-process front end over a compile-worker pool.

The :mod:`repro.fleet` package scales the single-process serving stack
(:class:`~repro.runtime.server.KernelServer` /
:class:`~repro.graphs.server.ModelServer`) out to N compile workers while
answering every request in the caller's process:

* :mod:`repro.fleet.config` — :class:`FleetConfig`, the one frozen value
  describing a deployment (pool size, shared cache namespace, admission
  watermark, failover budget, compiler knobs);
* :mod:`repro.fleet.worker` — the worker process entry point: a stateless
  compiler that writes plans to the shared cache;
* :mod:`repro.fleet.router` — :class:`ServingFleet` (lifecycle, the
  in-process front end, single-flight least-loaded compile dispatch,
  admission control, health/failover);
* :mod:`repro.fleet.stats` — :class:`FleetStats`, the router + front end +
  per-worker observability snapshot.
"""

from repro.fleet.config import FleetConfig
from repro.fleet.router import FleetResponse, ServingFleet
from repro.fleet.stats import FleetStats
from repro.fleet.worker import FleetWorker

__all__ = [
    "FleetConfig",
    "FleetResponse",
    "FleetStats",
    "FleetWorker",
    "ServingFleet",
]
