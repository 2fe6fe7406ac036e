"""Unified compiler configuration.

:class:`FuserConfig` is the single carrier for every search/compile knob the
stack understands.  One frozen value object flows through
:class:`~repro.api.FlashFuser`, :class:`~repro.runtime.batch.BatchCompiler`,
:func:`~repro.runtime.warmup.warmup_workloads` and
:class:`~repro.runtime.server.KernelServer` instead of each of them copying
the same kwarg list, and :meth:`FuserConfig.cache_key_fields` is the one
canonical definition of which knobs shape compiled plans — the plan cache
derives its keys from it, so the key format cannot drift between call sites.
The other fields — the device aside, which enters keys by its fingerprint —
are plan-neutral: they change how a search runs, never which plan it picks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace as _dataclass_replace
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.hardware.registry import device_name_of, get_device
from repro.hardware.spec import HardwareSpec

if TYPE_CHECKING:
    from repro.runtime.cache import PlanCache


# --------------------------------------------------------------------- #
# The configuration object
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FuserConfig:
    """Every knob of the FlashFuser compiler stack, as one frozen value.

    Parameters
    ----------
    device:
        Target hardware: a :class:`~repro.hardware.spec.HardwareSpec` or a
        name registered with
        :func:`~repro.hardware.registry.register_device` (``"h100"``,
        ``"a100"``, ...).
    top_k:
        Top-K candidates profiled after the cost-model ranking (11 in the
        paper).
    include_dsm:
        Disable to restrict fusion to a single SM's resources (prior-work
        behaviour), used by the ablation experiments.
    max_tile:
        Largest block tile extent the search considers.
    cache:
        Optional plan cache: a :class:`~repro.runtime.cache.PlanCache`
        instance, or a directory path from which one is created.
    transfer:
        Warm-start cold compiles from the nearest previously compiled shape
        (same chain kind/device, different M/N/K): a bounded local search
        around the transferred plan replaces full enumeration when it stays
        within ``transfer_bound`` of the chain's cost lower bound.  Off by
        default — a transferred plan may differ from the exact search's, so
        both knobs are part of the cache key.
    transfer_bound:
        Acceptance bound of transferred plans, as a factor over the chain's
        admissible cost lower bound (must be >= 1.0).  Only meaningful with
        ``transfer=True``.
    rewrite:
        Canonicalize operator graphs (:func:`repro.graphs.rewrite.canonicalize`)
        before chain extraction, so export spellings — interior reshapes,
        transposed weights, swapped gating operands, missing link
        activations — still extract their fusible chains.  On by default.
        Plan-neutral: rewriting changes *which* chains are extracted, never
        which plan a given chain compiles to (an extracted chain has the
        same canonical identity as the same chain built directly), so never
        part of the cache key.
    trace:
        Observability opt-in carried alongside the compile knobs (see
        :mod:`repro.obs.trace`; the ``REPRO_TRACE`` environment variable is
        the usual switch).  Plan-neutral by construction — tracing can never
        change a selected plan — so never part of the cache key.

    Example
    -------
    >>> config = FuserConfig(device="a100", top_k=5)
    >>> config.replace(top_k=7).top_k
    7
    >>> FuserConfig.from_dict(config.to_dict()) == config
    True
    >>> sorted(config.cache_key_fields())
    ['include_dsm', 'max_tile', 'top_k', 'transfer', 'transfer_bound']
    """

    device: Union[str, HardwareSpec] = "h100"
    top_k: int = 11
    include_dsm: bool = True
    max_tile: int = 256
    cache: Optional[Union["PlanCache", str, os.PathLike]] = None
    transfer: bool = False
    transfer_bound: float = 2.0
    rewrite: bool = True
    trace: bool = False

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.max_tile < 1:
            raise ValueError("max_tile must be >= 1")
        if self.transfer_bound < 1.0:
            raise ValueError("transfer_bound must be >= 1.0")

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def replace(self, **overrides: object) -> "FuserConfig":
        """A copy with ``overrides`` applied (validated like construction)."""
        if not overrides:
            return self
        return _dataclass_replace(self, **overrides)

    def resolve_device(self) -> HardwareSpec:
        """The concrete :class:`HardwareSpec` this config targets."""
        return get_device(self.device)

    def resolve_cache(self) -> Optional["PlanCache"]:
        """The concrete :class:`PlanCache`, constructing one from a path."""
        if self.cache is None:
            return None
        from repro.runtime.cache import PlanCache

        if isinstance(self.cache, PlanCache):
            return self.cache
        return PlanCache(directory=self.cache)

    def cache_key_fields(self) -> Dict[str, object]:
        """The knobs that shape compiled plans — the plan-cache key part.

        This is the single canonical definition: exactly ``top_k``,
        ``include_dsm``, ``max_tile``, ``transfer`` and ``transfer_bound``
        (the transfer knobs can change which plan is selected, so they must
        partition the cache).  Device identity enters the key separately
        (via the hardware fingerprint) and ``rewrite``, ``trace`` and
        ``cache`` never do — they cannot change the selected
        plan, so toggling them does not invalidate cached plans.
        """
        return {
            "top_k": self.top_k,
            "include_dsm": self.include_dsm,
            "max_tile": self.max_tile,
            "transfer": self.transfer,
            "transfer_bound": self.transfer_bound,
        }

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-dictionary form, suitable for JSON.

        The device is stored by registry name (an unregistered
        :class:`HardwareSpec` raises — register it first) and the cache by
        its directory path (a memory-only cache raises, since the handle
        cannot survive serialization).
        """
        device = self.device
        if isinstance(device, HardwareSpec):
            name = device_name_of(device)
            if name is None:
                raise ValueError(
                    f"device {device.name!r} is not registered; call "
                    "register_device() before serializing a FuserConfig "
                    "that references it"
                )
            device = name
        cache: Optional[str] = None
        if self.cache is not None:
            from repro.runtime.cache import PlanCache

            if isinstance(self.cache, PlanCache):
                if self.cache.directory is None:
                    raise ValueError(
                        "a memory-only PlanCache cannot be serialized; use a "
                        "directory-backed cache (or cache=None)"
                    )
                cache = str(self.cache.directory)
            else:
                cache = os.fspath(self.cache)
        return {
            "device": device,
            "top_k": self.top_k,
            "include_dsm": self.include_dsm,
            "max_tile": self.max_tile,
            "cache": cache,
            "transfer": self.transfer,
            "transfer_bound": self.transfer_bound,
            "rewrite": self.rewrite,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FuserConfig":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown FuserConfig fields {sorted(unknown)}; known: "
                f"{sorted(known)}"
            )
        return cls(**payload)
