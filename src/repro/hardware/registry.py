"""Device registry: resolve :class:`HardwareSpec` objects by name.

Everywhere the compiler stack accepts a device, a registered *name* works
too: ``FuserConfig(device="a100")``, ``FlashFuser(device="h100")``, the
experiment drivers' ``--device`` flag.  The registry maps lower-cased names
to specs (or zero-argument spec factories, resolved lazily and memoized so
every ``get_device("h100")`` call shares one immutable instance).

The built-in presets (``h100``, ``a100``) are registered at import time;
downstream code adds its own targets with :func:`register_device` — e.g. a
de-rated part built with ``dataclasses.replace`` on an existing preset — and
experiments can then sweep :func:`list_devices` by name.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.analysis.locks import make_lock
from repro.hardware.spec import HardwareSpec, a100_spec, h100_spec

#: A registry value: a ready spec, or a zero-argument factory producing one.
DeviceEntry = Union[HardwareSpec, Callable[[], HardwareSpec]]

#: The name resolved when no device is specified anywhere.
DEFAULT_DEVICE = "h100"

_REGISTRY: Dict[str, DeviceEntry] = {}
_RESOLVED: Dict[str, HardwareSpec] = {}
_LOCK = make_lock("device-registry", reentrant=True)


def _normalize(name: str) -> str:
    if not isinstance(name, str) or not name.strip():
        raise ValueError("device name must be a non-empty string")
    return name.strip().lower()


def register_device(
    name: str, spec: DeviceEntry, overwrite: bool = False
) -> None:
    """Register a device under ``name`` (case-insensitive).

    ``spec`` is a :class:`HardwareSpec` or a zero-argument factory; factories
    are resolved lazily on first :func:`get_device` and memoized.  Registering
    an already-taken name raises unless ``overwrite=True``.

    Example
    -------
    >>> import dataclasses
    >>> derated = dataclasses.replace(
    ...     get_device("h100"), name="H100 derated", peak_fp16_tflops=700.0)
    >>> register_device("h100-derated", derated)
    >>> get_device("H100-DERATED").peak_fp16_tflops   # case-insensitive
    700.0
    >>> unregister_device("h100-derated")
    """
    key = _normalize(name)
    if not isinstance(spec, HardwareSpec) and not callable(spec):
        raise TypeError(
            "spec must be a HardwareSpec or a zero-argument factory, "
            f"got {type(spec).__name__}"
        )
    with _LOCK:
        if key in _REGISTRY and not overwrite:
            raise ValueError(
                f"device {name!r} is already registered; pass overwrite=True "
                "to replace it"
            )
        _REGISTRY[key] = spec
        _RESOLVED.pop(key, None)


def unregister_device(name: str) -> None:
    """Remove a registered device (raises :class:`KeyError` if absent)."""
    key = _normalize(name)
    with _LOCK:
        if key not in _REGISTRY:
            raise KeyError(f"device {name!r} is not registered")
        del _REGISTRY[key]
        _RESOLVED.pop(key, None)


def get_device(
    device: Union[str, HardwareSpec, None] = None,
) -> HardwareSpec:
    """Resolve a device name or spec to a :class:`HardwareSpec`.

    Specs pass through unchanged; names are looked up case-insensitively;
    ``None`` resolves the default device (``"h100"``).  Repeated lookups of
    the same name return the same memoized instance.

    Example
    -------
    >>> get_device("h100").name
    'NVIDIA H100 SXM'
    >>> get_device("h100") is get_device("H100")
    True
    """
    if device is None:
        device = DEFAULT_DEVICE
    if isinstance(device, HardwareSpec):
        return device
    key = _normalize(device)
    with _LOCK:
        spec = _RESOLVED.get(key)
        if spec is not None:
            return spec
        entry = _REGISTRY.get(key)
        if entry is None:
            raise KeyError(
                f"unknown device {device!r}; registered devices: {list_devices()}"
            )
        spec = entry() if not isinstance(entry, HardwareSpec) else entry
        if not isinstance(spec, HardwareSpec):
            raise TypeError(
                f"device factory for {device!r} returned "
                f"{type(spec).__name__}, expected HardwareSpec"
            )
        _RESOLVED[key] = spec
        return spec


def list_devices() -> List[str]:
    """All registered device names, sorted.

    Example
    -------
    >>> {"a100", "h100"} <= set(list_devices())   # built-in presets
    True
    """
    with _LOCK:
        return sorted(_REGISTRY)


def device_name_of(spec: HardwareSpec) -> Optional[str]:
    """The registered name of ``spec``, or ``None`` if it is unregistered.

    Identity is checked first (the common case: a spec obtained from
    :func:`get_device`); otherwise the device fingerprint is compared, so a
    freshly constructed ``h100_spec()`` still maps back to ``"h100"``.
    """
    with _LOCK:
        for key, resolved in _RESOLVED.items():
            if resolved is spec:
                return key
    fingerprint = spec.fingerprint()
    for key in list_devices():
        if get_device(key).fingerprint() == fingerprint:
            return key
    return None


register_device("h100", h100_spec)
register_device("a100", a100_spec)
