"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.api import CompiledKernel, FlashFuser
from repro.config import FuserConfig
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import GemmChainSpec
from repro.ir.workloads import get_workload

#: Default workload suites of Figure 10.
GEMM_SUITE = tuple(f"G{i}" for i in range(1, 11))
CONV_SUITE = tuple(f"C{i}" for i in range(1, 9))
GATED_SUITE = tuple(f"S{i}" for i in range(1, 9))

#: A device argument anywhere in the experiment layer: a spec, a registered
#: name (``"h100"``, ``"a100"``, or anything added via ``register_device``),
#: or ``None`` for the config default.
DeviceLike = Union[str, HardwareSpec, None]


def fuser_from_config(
    config: Optional[FuserConfig] = None, **overrides
) -> FlashFuser:
    """The one place experiment drivers construct a :class:`FlashFuser`.

    Drivers and the shared :class:`CompilerCache` route through this helper
    so every figure/table honours the same :class:`FuserConfig` (including
    registry device names from a ``--device`` flag) instead of re-assembling
    compilers ad hoc.
    """
    return FlashFuser(config, **overrides)


class CompilerCache:
    """Compile each workload at most once across experiments."""

    def __init__(
        self,
        device: DeviceLike = None,
        config: Optional[FuserConfig] = None,
        **kwargs,
    ) -> None:
        base = config or FuserConfig()
        if device is not None:
            base = base.replace(device=device)
        self.compiler = fuser_from_config(base, **kwargs)
        self.config = self.compiler.config
        self.device = self.compiler.device
        self._cache: Dict[str, CompiledKernel] = {}

    def get(self, workload_id: str) -> CompiledKernel:
        """Compiled kernel for one workload id (cached)."""
        if workload_id not in self._cache:
            self._cache[workload_id] = self.compiler.compile(chain_for(workload_id))
        return self._cache[workload_id]


def chain_for(workload_id: str) -> GemmChainSpec:
    """The canonical chain spec of one workload id."""
    return get_workload(workload_id).to_spec()


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, tolerating the empty sequence."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    product = 1.0
    for value in filtered:
        product *= value
    return product ** (1.0 / len(filtered))


def format_table(rows: List[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    columns = list(columns or rows[0].keys())
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
