"""Unified compiler configuration.

:class:`FuserConfig` is the single carrier for every search/compile knob the
stack understands.  One frozen value object flows through
:class:`~repro.api.FlashFuser` and :class:`~repro.runtime.server.KernelServer`
(batch compiles and warm-ups run through a ``FlashFuser``) instead of each
of them copying the same kwarg list.  :meth:`FuserConfig.cache_key_fields`
is the one canonical definition of which knobs shape compiled plans — the
plan cache derives its keys from it, so the key format cannot drift between
call sites.  The device enters keys by its fingerprint; ``cache`` only says
where entries live, so it never enters them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace as _dataclass_replace
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.hardware.registry import device_name_of, get_device
from repro.hardware.spec import HardwareSpec
from repro.search.incremental import TRANSFER_BOUND

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
        within :data:`~repro.search.incremental.TRANSFER_BOUND` of the
        chain's cost lower bound.  Off by default — a transferred plan may
        differ from the exact search's, so the knob is part of the cache
        key.

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

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.max_tile < 1:
            raise ValueError("max_tile must be >= 1")

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
        (transfer can change which plan is selected, so it must partition
        the cache; its acceptance bound is the fixed
        :data:`~repro.search.incremental.TRANSFER_BOUND`, kept in the key so
        existing plan-cache entries keep their keys).  Device identity
        enters the key separately (via the hardware fingerprint) and
        ``cache`` never does.
        """
        return {
            "top_k": self.top_k,
            "include_dsm": self.include_dsm,
            "max_tile": self.max_tile,
            "transfer": self.transfer,
            "transfer_bound": TRANSFER_BOUND,
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
