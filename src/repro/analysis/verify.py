"""Semantic verification of cached execution plans.

Disk :class:`~repro.runtime.cache.PlanCache` entries — including the ones
fleet workers write for the fleet's front end — are plain JSON files in a
shared directory.  Nothing stops a truncated write from a crashed
process, a stale file from an older format, or a tampered payload from
reaching :meth:`PlanCacheEntry.rehydrate` and being served fleet-wide.
:class:`PlanVerifier` re-derives the invariants a legal entry must satisfy
before it is trusted:

* **structure** — the plan/report/search/traffic payloads decode into
  their dataclasses at all (loop-schedule coverage and cluster-geometry
  divisibility are enforced by the dataclass constructors themselves);
* **legality** — the decoded candidate re-passes the pruning cascade of
  Section IV-C2 (MMA-granular tiles, cluster limits, activation and
  dependency constraints, and the Rule 5 check that the persistent
  intermediate fits the fingerprinted device's SMEM (+ reserve), register
  and DSM budgets);
* **consistency** — the stored simulation report, search summary and
  traffic report agree with the plan they describe (``time_us`` matches
  ``simulated_time_us``, the search actually succeeded, volumes are
  non-negative);
* **identity** — the entry's key matches the filename it was loaded from
  and, when the entry carries its device fingerprint and search config,
  the key recomputed from the payload.

A single verifier instance is attached to every ``PlanCache``; entries
failing any check are rejected at load (counted in ``CacheStats``) and the
request transparently falls through to a cold compile.  The same checks
back the ``python -m repro.analysis audit <cache-dir>`` CLI via
:func:`audit_cache_dir`, and :func:`verify_model_plan` applies the
segment-level invariants to assembled :class:`~repro.graphs.plan.ModelPlan`
objects in tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.codegen.plan import ExecutionPlan
from repro.hardware.cluster import ClusterLimits
from repro.hardware.dsm import DsmModel
from repro.hardware.memory import MemoryHierarchy, MemoryLevel
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import GemmChainSpec
from repro.search.pruning import Pruner
from repro.search.space import FusionCandidate

#: Relative tolerance for float agreement between stored payloads that
#: describe the same quantity (serialization round-trips are exact, so the
#: slack only absorbs benign float formatting).
REL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Violation:
    """One failed invariant found by the verifier.

    Parameters
    ----------
    check:
        Dotted identifier of the failed check (e.g. ``"capacity.rule5"``).
    message:
        Human-readable description of the failure.
    key:
        Cache key of the offending entry, when known.
    """

    check: str
    message: str
    key: Optional[str] = None

    def __str__(self) -> str:
        prefix = f"[{self.key[:12]}…] " if self.key else ""
        return f"{prefix}{self.check}: {self.message}"


def _close(a: float, b: float, rel: float = REL_TOLERANCE) -> bool:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) <= rel * scale


def spec_from_fingerprint(fingerprint: Dict[str, object]) -> HardwareSpec:
    """Rebuild a :class:`HardwareSpec` from its cache-key fingerprint.

    The fingerprint records everything that can steer a fusion plan —
    capacities, bandwidths, cluster limits — which is exactly what the
    capacity and legality checks need.  The DSM *performance* model is not
    fingerprinted; a default one stands in, which is irrelevant here
    because verification never re-simulates.

    Parameters
    ----------
    fingerprint:
        A :meth:`repro.hardware.spec.HardwareSpec.fingerprint` payload.
    """
    levels = [
        MemoryLevel(
            name=str(name),
            capacity_bytes=int(capacity),
            bandwidth_gbps=float(bandwidth),
            latency_cycles=float(latency),
        )
        for name, capacity, bandwidth, latency in fingerprint["levels"]
    ]
    max_blocks, dim_sizes, mma_tile = fingerprint["cluster_limits"]
    return HardwareSpec(
        name=str(fingerprint["name"]),
        num_sms=int(fingerprint["num_sms"]),
        peak_fp16_tflops=float(fingerprint["peak_fp16_tflops"]),
        clock_ghz=float(fingerprint["clock_ghz"]),
        hierarchy=MemoryHierarchy(levels),
        dsm=DsmModel() if fingerprint.get("has_dsm") else None,
        cluster_limits=ClusterLimits(
            max_blocks_per_cluster=int(max_blocks),
            allowed_dim_sizes=tuple(int(v) for v in dim_sizes),
            mma_tile=tuple(int(v) for v in mma_tile),
        ),
        bytes_per_element=int(fingerprint["bytes_per_element"]),
    )


class PlanVerifier:
    """Semantic invariant checks over cached plans and cache entries.

    Parameters
    ----------
    device:
        Device used for capacity/legality checks when an entry does not
        carry its own fingerprint (entries written by this codebase always
        do; ``None`` skips device checks for fingerprint-less entries).

    Example
    -------
    ::

        from repro import FlashFuser, PlanCache
        from repro.analysis import PlanVerifier

        cache = PlanCache(directory="/tmp/plans")
        with FlashFuser(cache=cache) as compiler:
            compiler.compile_workload("G4")
        verifier = PlanVerifier()
        for key in cache.disk_keys():
            entry = cache.get(key)
            assert verifier.verify_entry(entry, expected_key=key) == []
    """

    def __init__(self, device: Optional[HardwareSpec] = None) -> None:
        self.device = device
        self._pruners: Dict[str, Pruner] = {}

    # ------------------------------------------------------------------ #
    # Plan-level checks
    # ------------------------------------------------------------------ #
    def verify_plan(
        self,
        plan: ExecutionPlan,
        device: Optional[HardwareSpec] = None,
        include_dsm: Optional[bool] = None,
        key: Optional[str] = None,
    ) -> List[Violation]:
        """Check one decoded plan against the pruning-cascade invariants.

        Returns the list of violations (empty for a legal plan).  The
        schedule/geometry constructor invariants already held or the plan
        could not have been built; what is re-derived here is the Section
        IV-C2 cascade — tile granularity, cluster validity, activation and
        dependency legality, and the Rule 5 on-chip capacity bound.
        """
        violations: List[Violation] = []
        device = device or self.device
        if device is None:
            return violations
        if include_dsm is None:
            include_dsm = device.has_dsm
        candidate = FusionCandidate(
            chain=plan.chain,
            schedule=plan.schedule,
            tile=plan.tile,
            geometry=plan.geometry,
        )
        pruner = self._pruner_for(device, bool(include_dsm))
        failed = pruner.failed_rule(candidate)
        if failed is not None:
            violations.append(
                Violation(
                    check=f"legality.{failed.value}",
                    message=(
                        f"plan for chain {plan.chain.name!r} "
                        f"({candidate.label()}) fails {failed.value} on "
                        f"device {device.name!r}"
                    ),
                    key=key,
                )
            )
        if plan.predicted_cost_us < 0 or plan.simulated_time_us < 0:
            violations.append(
                Violation(
                    check="consistency.negative_cost",
                    message="plan carries a negative predicted/simulated cost",
                    key=key,
                )
            )
        for name, value in plan.volumes.items():
            if value < 0:
                violations.append(
                    Violation(
                        check="consistency.negative_volume",
                        message=f"data-movement volume {name!r} is negative",
                        key=key,
                    )
                )
        return violations

    def _pruner_for(self, device: HardwareSpec, include_dsm: bool) -> Pruner:
        cache_key = f"{json.dumps(device.fingerprint(), sort_keys=True)}|{include_dsm}"
        pruner = self._pruners.get(cache_key)
        if pruner is None:
            pruner = Pruner(device, include_dsm=include_dsm)
            self._pruners[cache_key] = pruner
        return pruner

    # ------------------------------------------------------------------ #
    # Entry-level checks
    # ------------------------------------------------------------------ #
    def verify_entry(
        self, entry, expected_key: Optional[str] = None
    ) -> List[Violation]:
        """Check one parsed cache entry end to end.

        ``entry`` is duck-typed (``key``/``plan``/``report``/``search``/
        ``traffic`` plus the optional ``device`` fingerprint and
        ``search_config``) so this module never imports the runtime layer
        that imports it.  Returns all violations found; an empty list means
        the entry may be rehydrated and served.
        """
        violations: List[Violation] = []
        key = getattr(entry, "key", None)
        if expected_key is not None and key != expected_key:
            violations.append(
                Violation(
                    check="identity.key_mismatch",
                    message=(
                        f"entry key {str(key)[:12]}… does not match its "
                        f"storage key {expected_key[:12]}…"
                    ),
                    key=expected_key,
                )
            )
        try:
            plan = ExecutionPlan.from_dict(entry.plan)
        except (KeyError, TypeError, ValueError) as exc:
            violations.append(
                Violation(
                    check="structure.plan",
                    message=f"plan payload does not decode: {exc}",
                    key=key,
                )
            )
            return violations
        device: Optional[HardwareSpec] = None
        fingerprint = getattr(entry, "device", None)
        if fingerprint is not None:
            try:
                device = spec_from_fingerprint(fingerprint)
            except (KeyError, TypeError, ValueError) as exc:
                violations.append(
                    Violation(
                        check="structure.device",
                        message=f"device fingerprint does not decode: {exc}",
                        key=key,
                    )
                )
        search_config = getattr(entry, "search_config", None)
        include_dsm = None
        if isinstance(search_config, dict) and "include_dsm" in search_config:
            include_dsm = bool(search_config["include_dsm"])
        violations.extend(
            self.verify_plan(plan, device=device, include_dsm=include_dsm, key=key)
        )
        violations.extend(self._verify_consistency(entry, plan, key))
        violations.extend(
            self._verify_key_recompute(entry, plan, device, search_config, key)
        )
        return violations

    def _verify_consistency(
        self, entry, plan: ExecutionPlan, key: Optional[str]
    ) -> List[Violation]:
        """Plan <-> report <-> search <-> traffic agreement."""
        violations: List[Violation] = []
        report = entry.report
        search = entry.search
        traffic = entry.traffic
        try:
            time_us = float(report["time_us"])
            if not _close(time_us, plan.simulated_time_us):
                violations.append(
                    Violation(
                        check="consistency.report_time",
                        message=(
                            f"report time_us={time_us:.6g} disagrees with "
                            f"plan simulated_time_us="
                            f"{plan.simulated_time_us:.6g}"
                        ),
                        key=key,
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            violations.append(
                Violation(
                    check="structure.report",
                    message=f"report payload is malformed: {exc}",
                    key=key,
                )
            )
        try:
            if not bool(search["succeeded"]):
                violations.append(
                    Violation(
                        check="consistency.search_failed",
                        message="entry stores a search summary marked failed",
                        key=key,
                    )
                )
        except (KeyError, TypeError) as exc:
            violations.append(
                Violation(
                    check="structure.search",
                    message=f"search payload is malformed: {exc}",
                    key=key,
                )
            )
        try:
            read_bytes = float(traffic["read_bytes"])
            write_bytes = float(traffic["write_bytes"])
            if read_bytes < 0 or write_bytes < 0:
                violations.append(
                    Violation(
                        check="consistency.negative_traffic",
                        message="traffic report carries negative byte counts",
                        key=key,
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            violations.append(
                Violation(
                    check="structure.traffic",
                    message=f"traffic payload is malformed: {exc}",
                    key=key,
                )
            )
        return violations

    def _verify_key_recompute(
        self,
        entry,
        plan: ExecutionPlan,
        device: Optional[HardwareSpec],
        search_config,
        key: Optional[str],
    ) -> List[Violation]:
        """Recompute the cache key from the payload when possible."""
        if device is None or not isinstance(search_config, dict):
            return []
        # Local import: repro.runtime.cache imports this module.
        from repro.runtime.cache import plan_cache_key

        recomputed = plan_cache_key(plan.chain, device, search_config)
        if recomputed == key:
            return []
        return [
            Violation(
                check="identity.key_recompute",
                message=(
                    "key recomputed from the stored chain/device/search "
                    f"config ({recomputed[:12]}…) disagrees with the entry "
                    f"key ({str(key)[:12]}…)"
                ),
                key=key,
            )
        ]


def verify_model_plan(plan) -> List[Violation]:
    """Segment-level invariants of an assembled model plan.

    Checks that segments cover disjoint, in-order operator ranges (the
    topological-legality contract of
    :func:`repro.graphs.plan.assemble_plan`), that fused segments carry a
    kernel while unfusable ones carry an operator charge, and that every
    charged time is non-negative.

    Parameters
    ----------
    plan:
        A :class:`repro.graphs.plan.ModelPlan`.
    """
    violations: List[Violation] = []
    last_anchor = -1
    seen: set = set()
    for index, segment in enumerate(plan.segments):
        anchor = segment.anchor
        if anchor < last_anchor:
            violations.append(
                Violation(
                    check="segments.order",
                    message=(
                        f"segment {index} anchored at {anchor} precedes the "
                        f"previous segment's anchor {last_anchor}"
                    ),
                )
            )
        last_anchor = max(last_anchor, anchor)
        overlap = seen.intersection(segment.operators)
        if overlap:
            violations.append(
                Violation(
                    check="segments.overlap",
                    message=(
                        f"segment {index} re-covers operators "
                        f"{sorted(overlap)!r}"
                    ),
                )
            )
        seen.update(segment.operators)
        if segment.charged_us < 0:
            violations.append(
                Violation(
                    check="segments.negative_time",
                    message=f"segment {index} charges a negative time",
                )
            )
    return violations


@dataclass
class AuditResult:
    """Outcome of auditing one disk cache entry file."""

    path: str
    key: str
    status: str  # "ok" | "stale" | "corrupt" | "rejected"
    violations: List[Violation]


@dataclass
class AuditReport:
    """Aggregate outcome of :func:`audit_cache_dir`."""

    results: List[AuditResult]

    @property
    def counts(self) -> Dict[str, int]:
        """Entries per status, in pinned key order."""
        counts = {"ok": 0, "stale": 0, "corrupt": 0, "rejected": 0}
        for result in self.results:
            counts[result.status] += 1
        return counts

    @property
    def clean(self) -> bool:
        """Whether every entry in the directory verified."""
        return all(result.status == "ok" for result in self.results)


def audit_cache_dir(
    directory,
    device: Optional[HardwareSpec] = None,
) -> AuditReport:
    """Verify every entry file in a plan-cache directory.

    Each ``<key>.json`` is parsed with the same typed classifier the cache
    uses at load time (stale format version vs corrupt payload) and then
    checked by :class:`PlanVerifier` against the key its filename claims.

    Parameters
    ----------
    directory:
        A :class:`~repro.runtime.cache.PlanCache` disk-store directory.
    device:
        Fallback device for entries that do not embed their fingerprint.
    """
    # Local import: repro.runtime.cache imports this module.
    from repro.errors import CorruptCacheEntry, StaleCacheEntry
    from repro.runtime.cache import PlanCacheEntry

    verifier = PlanVerifier(device=device)
    results: List[AuditResult] = []
    root = Path(directory).expanduser()
    for path in sorted(root.glob("*.json")):
        key = path.stem
        try:
            blob = path.read_text(encoding="utf-8")
            entry = PlanCacheEntry.parse(blob)
        except StaleCacheEntry as exc:
            results.append(
                AuditResult(
                    path=str(path),
                    key=key,
                    status="stale",
                    violations=[Violation("parse.stale", str(exc), key=key)],
                )
            )
            continue
        except (CorruptCacheEntry, OSError) as exc:
            results.append(
                AuditResult(
                    path=str(path),
                    key=key,
                    status="corrupt",
                    violations=[Violation("parse.corrupt", str(exc), key=key)],
                )
            )
            continue
        violations = verifier.verify_entry(entry, expected_key=key)
        results.append(
            AuditResult(
                path=str(path),
                key=key,
                status="ok" if not violations else "rejected",
                violations=violations,
            )
        )
    return AuditReport(results=results)
