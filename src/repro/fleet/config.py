"""Fleet-deployment configuration.

:class:`FleetConfig` follows the :class:`~repro.config.FuserConfig` /
:class:`~repro.bench.config.BenchConfig` conventions — one frozen value
object carrying every knob of a multi-worker serving deployment, with
``replace()`` derivation and a ``to_dict()``/``from_dict()`` round-trip — so
a whole fleet (compile-pool size, shared cache namespace, admission
watermark, failover budget, compiler knobs) is described by a single serializable
value that also crosses the process boundary to the workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace as _dataclass_replace
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.config import FuserConfig
from repro.runtime.server import DEFAULT_M_BINS

#: Process start methods the fleet accepts.  ``spawn`` is the default —
#: worker processes are long-lived and the router is multi-threaded, which
#: makes forking a threaded parent hazardous.
START_METHODS: Tuple[str, ...] = ("spawn", "fork", "forkserver")


@dataclass(frozen=True)
class FleetConfig:
    """Every knob of one serving-fleet deployment, as one frozen value.

    Parameters
    ----------
    workers:
        Compile-pool worker processes.  Workers only run the fusion search
        for plans no cache tier holds; every request is answered by the
        fleet's in-process front end.
    cache_dir:
        Shared on-disk :class:`~repro.runtime.cache.PlanCache` namespace.
        Workers write their plans here and the front end reads them back,
        so each plan is compiled once per fleet.  ``None`` lets the fleet
        create (and own) a temporary directory for its lifetime.
    m_bins:
        M bins of the front end's kernel server.
    device, top_k, include_dsm, max_tile, transfer:
        Compiler knobs of the fleet's :class:`~repro.config.FuserConfig`,
        shared by the front end and every worker.  Workers always run the
        serial search engine — the pool itself is the parallelism.  With
        ``transfer`` enabled, a cold compile of a new M warm-starts from the
        nearest shape in the shared plan cache (source
        ``compiled:transfer``).
    watermark:
        Admission-control watermark: when this many compile tasks are in
        flight across the pool, a request that misses every cache tier is
        rejected with a Retry-After hint instead of queuing without bound.
        Requests answered from the front end's tables or cache never queue
        and are never rejected.
    max_retries:
        Failover budget: how many times one compile task may be
        re-dispatched after a worker death before its request fails.
    retry_after_s:
        Base Retry-After hint attached to rejected requests; the router
        scales it with the amount of excess queue depth.
    health_interval_s:
        Upper bound on how long the health monitor sleeps between sweeps
        (it also wakes the moment a worker exits); dead workers are
        restarted and their in-flight compile tasks failed over.
    start_method:
        ``multiprocessing`` start method for worker processes.
    request_timeout_s:
        Upper bound one compile task may wait for a worker answer (covers
        retries); exceeding it fails the request rather than hanging.

    Example
    -------
    >>> config = FleetConfig(workers=4, watermark=32)
    >>> FleetConfig.from_dict(config.to_dict()) == config
    True
    >>> config.replace(workers=2).workers
    2
    """

    workers: int = 2
    cache_dir: Optional[Union[str, os.PathLike]] = None
    m_bins: Tuple[int, ...] = DEFAULT_M_BINS
    device: str = "h100"
    top_k: int = 11
    include_dsm: bool = True
    max_tile: int = 256
    transfer: bool = False
    watermark: int = 64
    max_retries: int = 2
    retry_after_s: float = 0.05
    health_interval_s: float = 0.2
    start_method: str = "spawn"
    request_timeout_s: float = 300.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        object.__setattr__(self, "m_bins", tuple(self.m_bins))
        if not self.m_bins or any(m <= 0 for m in self.m_bins):
            raise ValueError("m_bins must be non-empty and positive")
        if self.watermark < 1:
            raise ValueError("watermark must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        if self.health_interval_s <= 0:
            raise ValueError("health_interval_s must be positive")
        if self.start_method not in START_METHODS:
            raise ValueError(
                f"unknown start_method {self.start_method!r}; choose from "
                f"{START_METHODS}"
            )
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def replace(self, **overrides: object) -> "FleetConfig":
        """A copy with ``overrides`` applied (validated like construction)."""
        if not overrides:
            return self
        return _dataclass_replace(self, **overrides)

    def fuser_config(self, cache_dir: Optional[str] = None) -> FuserConfig:
        """The fleet's :class:`FuserConfig` (``cache_dir`` resolved).

        ``cache_dir`` overrides the config's own directory — the fleet
        passes the concrete path here when it created a temporary shared
        namespace on the config's behalf.
        """
        directory = cache_dir if cache_dir is not None else self.cache_dir
        return FuserConfig(
            device=self.device,
            top_k=self.top_k,
            include_dsm=self.include_dsm,
            max_tile=self.max_tile,
            cache=directory,
            transfer=self.transfer,
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-dictionary form with a stable key order (JSON-ready)."""
        return {
            "workers": self.workers,
            "cache_dir": (
                None if self.cache_dir is None else os.fspath(self.cache_dir)
            ),
            "m_bins": list(self.m_bins),
            "device": self.device,
            "top_k": self.top_k,
            "include_dsm": self.include_dsm,
            "max_tile": self.max_tile,
            "transfer": self.transfer,
            "watermark": self.watermark,
            "max_retries": self.max_retries,
            "retry_after_s": self.retry_after_s,
            "health_interval_s": self.health_interval_s,
            "start_method": self.start_method,
            "request_timeout_s": self.request_timeout_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FleetConfig":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown FleetConfig fields {sorted(unknown)}; known: "
                f"{sorted(known)}"
            )
        coerced: Dict[str, object] = dict(payload)
        if "m_bins" in coerced:
            coerced["m_bins"] = tuple(coerced["m_bins"])
        return cls(**coerced)
