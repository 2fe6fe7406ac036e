"""Two-tier persistent plan cache.

The fusion search dominates FlashFuser's compile cost (Table VIII); its
*output* — the selected execution plan — is tiny.  The cache exploits that
asymmetry with two tiers:

* an **in-process LRU** of deserialized entries plus rehydrated
  :class:`~repro.api.CompiledKernel` objects (sub-microsecond hits), and
* a **disk-backed JSON store** (one file per key) that survives process
  restarts and is shared by every process pointing at the same directory.

Keys are stable SHA-256 digests of the chain's canonical identity
(:meth:`~repro.ir.graph.GemmChainSpec.canonical_dict` — the name is
excluded, so equally shaped chains share entries), the device fingerprint
(:meth:`~repro.hardware.spec.HardwareSpec.fingerprint`) and the search
configuration.  Entries store the serialized plan, simulation report, search
summary and traffic report; the kernel IR and CUDA source are regenerated
deterministically from the plan on load.

Disk entries are never trusted blindly: every load runs the typed parser
(stale format versions and corrupt payloads are counted separately in
:class:`CacheStats`) and then the semantic
:class:`~repro.analysis.verify.PlanVerifier` — capacity, legality,
consistency and key-agreement checks — before an entry may serve.  Since a
serving fleet's front end reads its workers' plans through this same path,
it cannot be poisoned by a tampered or torn file either.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.locks import make_lock, require_held
from repro.analysis.verify import PlanVerifier
from repro.api import CompiledKernel
from repro.codegen.cuda_emitter import emit_cuda
from repro.codegen.kernel_ir import lower_plan
from repro.codegen.plan import ExecutionPlan
from repro.errors import CacheEntryError, CorruptCacheEntry, StaleCacheEntry
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import GemmChainSpec
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import tracer
from repro.search.engine import SearchSummary
from repro.sim.engine import SimulationReport
from repro.sim.profiler import TrafficReport

_logger = get_logger(__name__)

#: Bumped whenever the serialized entry layout changes; old-format disk
#: entries are treated as misses instead of raising.
CACHE_FORMAT_VERSION = 1

#: Resolution tiers reported by :meth:`PlanCache.lookup`.
TIER_MEMORY = "memory"
TIER_DISK = "disk"


def plan_cache_key(
    chain: GemmChainSpec,
    device: HardwareSpec,
    search_config: Optional[Dict[str, object]] = None,
) -> str:
    """Stable cache key for one (chain shape, device, search config) triple."""
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "chain": chain.canonical_dict(),
        "device": device.fingerprint(),
        "search": dict(sorted((search_config or {}).items())),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class PlanCacheEntry:
    """One cached compilation: serialized plan, report, search and traffic.

    Entries written by this codebase also embed the device fingerprint and
    search config they were compiled under, so the verifier can recompute
    the cache key from the payload alone and re-check the plan against the
    fingerprinted device's capacities; both fields are optional on read so
    externally produced entries remain loadable (their device checks are
    simply skipped).
    """

    key: str
    plan: Dict[str, object]
    report: Dict[str, object]
    search: Dict[str, object]
    traffic: Dict[str, object]
    created_at: float = field(default_factory=time.time)
    device: Optional[Dict[str, object]] = None
    search_config: Optional[Dict[str, object]] = None

    @classmethod
    def from_kernel(
        cls,
        key: str,
        kernel: CompiledKernel,
        device: Optional[HardwareSpec] = None,
        search_config: Optional[Dict[str, object]] = None,
    ) -> "PlanCacheEntry":
        """Serialize a freshly compiled kernel into a cache entry."""
        search = kernel.search
        summary = search if isinstance(search, SearchSummary) else search.summary()
        return cls(
            key=key,
            plan=kernel.plan.to_dict(),
            report=kernel.report.to_dict(),
            search=summary.to_dict(),
            traffic={
                "strategy": kernel.traffic.strategy,
                "read_bytes": kernel.traffic.read_bytes,
                "write_bytes": kernel.traffic.write_bytes,
            },
            device=device.fingerprint() if device is not None else None,
            search_config=dict(search_config) if search_config else None,
        )

    def rehydrate(self, chain: Optional[GemmChainSpec] = None) -> CompiledKernel:
        """Rebuild a :class:`CompiledKernel` from the stored plan.

        ``chain`` substitutes an equally shaped chain for the stored one, so
        an entry compiled under workload A serves a request phrased as
        workload B.  The kernel IR and source are regenerated from the plan.
        """
        plan = ExecutionPlan.from_dict(self.plan, chain=chain)
        kernel_ir = lower_plan(plan)
        return CompiledKernel(
            plan=plan,
            kernel_ir=kernel_ir,
            source=emit_cuda(plan, kernel_ir),
            report=SimulationReport.from_dict(self.report),
            search=SearchSummary.from_dict(self.search, from_cache=True),
            traffic=TrafficReport(
                strategy=str(self.traffic["strategy"]),
                read_bytes=float(self.traffic["read_bytes"]),
                write_bytes=float(self.traffic["write_bytes"]),
            ),
        )

    # JSON round trip ---------------------------------------------------- #
    def to_json(self) -> str:
        """Serialize the entry to a JSON document."""
        payload: Dict[str, object] = {
            "version": CACHE_FORMAT_VERSION,
            "key": self.key,
            "created_at": self.created_at,
            "plan": self.plan,
            "report": self.report,
            "search": self.search,
            "traffic": self.traffic,
        }
        if self.device is not None:
            payload["device"] = self.device
        if self.search_config is not None:
            payload["search_config"] = self.search_config
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def parse(cls, blob: str) -> "PlanCacheEntry":
        """Parse a JSON document, classifying failures.

        Raises :class:`~repro.errors.StaleCacheEntry` for a payload written
        under a different :data:`CACHE_FORMAT_VERSION` (expected churn after
        a format bump) and :class:`~repro.errors.CorruptCacheEntry` for
        anything that does not decode into a well-formed entry (torn
        writes, disk corruption, tampering).  The distinction feeds the
        ``stale_entries`` / ``corrupt_entries`` counters of
        :class:`CacheStats`.
        """
        try:
            payload = json.loads(blob)
        except (ValueError, TypeError) as exc:
            raise CorruptCacheEntry(f"entry is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CorruptCacheEntry(
                f"entry payload is a {type(payload).__name__}, not an object"
            )
        version = payload.get("version")
        if version != CACHE_FORMAT_VERSION:
            raise StaleCacheEntry(
                f"entry format version {version!r} != {CACHE_FORMAT_VERSION}"
            )
        try:
            entry = cls(
                key=str(payload["key"]),
                plan=payload["plan"],
                report=payload["report"],
                search=payload["search"],
                traffic=payload["traffic"],
                created_at=float(payload.get("created_at", 0.0)),
                device=payload.get("device"),
                search_config=payload.get("search_config"),
            )
        except KeyError as exc:
            raise CorruptCacheEntry(f"entry is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CorruptCacheEntry(f"entry field has a bad type: {exc}") from exc
        for name in ("plan", "report", "search", "traffic"):
            if not isinstance(getattr(entry, name), dict):
                raise CorruptCacheEntry(f"entry field {name!r} is not an object")
        return entry

    @classmethod
    def from_json(cls, blob: str) -> Optional["PlanCacheEntry"]:
        """Parse a JSON document; returns ``None`` for unreadable/old data.

        Kept for callers that do not care *why* an entry is unusable; the
        cache itself uses :meth:`parse` so it can count stale and corrupt
        entries separately.
        """
        try:
            return cls.parse(blob)
        except CacheEntryError:
            return None


class CacheStats:
    """Hit/miss counters of one :class:`PlanCache`.

    Beyond the classic hit/miss/store counters, the cache counts every way
    a disk entry can fail to serve: ``stale_entries`` (old format version),
    ``corrupt_entries`` (unparseable payload), ``rejected_entries``
    (parsed, but failed semantic verification — capacity, legality or key
    agreement) and ``io_errors`` (disk reads/writes that raised
    ``OSError``).  Each failed load also counts as a miss, so serving
    sources stay truthful; fleet operators watch the failure counters to
    spot cache poisoning or disk trouble.

    The counters are ``repro_cache_<field>_total`` samples of
    :attr:`registry`; :meth:`inc` records into them and each field reads
    back as an attribute (``stats.memory_hits``).  :meth:`inc` and
    :meth:`prometheus_text` share one lock, so a scrape is a consistent
    snapshot of all nine counters.

    Example
    -------
    >>> stats = CacheStats()
    >>> stats.inc("disk_hits")
    >>> stats.disk_hits, stats.hits, stats.to_dict()["hit_rate"]
    (1, 1, 1.0)
    """

    def __init__(self) -> None:
        self._lock = make_lock("cache-stats")
        #: The registry holding the nine counters.
        self.registry = registry = MetricsRegistry()
        # Insertion order is the pinned to_dict() key order.
        self._counters: Dict[str, Counter] = {
            "memory_hits": registry.counter(
                "repro_cache_memory_hits_total", "Plan-cache memory-tier hits"
            ),
            "disk_hits": registry.counter(
                "repro_cache_disk_hits_total", "Plan-cache disk-tier hits"
            ),
            "misses": registry.counter(
                "repro_cache_misses_total", "Plan-cache misses"
            ),
            "stores": registry.counter(
                "repro_cache_stores_total", "Plan-cache stores"
            ),
            "evictions": registry.counter(
                "repro_cache_evictions_total", "Memory-tier LRU evictions"
            ),
            "stale_entries": registry.counter(
                "repro_cache_stale_entries_total", "Old-format disk entries"
            ),
            "corrupt_entries": registry.counter(
                "repro_cache_corrupt_entries_total", "Unparseable disk entries"
            ),
            "rejected_entries": registry.counter(
                "repro_cache_rejected_entries_total", "Entries the verifier refused"
            ),
            "io_errors": registry.counter(
                "repro_cache_io_errors_total", "Disk reads/writes that raised"
            ),
        }

    def inc(self, name: str) -> None:
        """Count one ``name`` event (``"memory_hits"``, ``"io_errors"``...)."""
        with self._lock:
            self._counters[name].inc()

    def prometheus_text(self) -> str:
        """:meth:`MetricsRegistry.prometheus_text` of :attr:`registry`."""
        with self._lock:
            return self.registry.prometheus_text()

    def __getattr__(self, name: str) -> int:
        try:
            counter = self.__dict__["_counters"][name]
        except KeyError:
            raise AttributeError(name) from None
        return int(counter.value)

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups that hit either tier."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-dictionary view of the counters (pinned key order)."""
        payload: Dict[str, object] = {
            name: int(counter.value) for name, counter in self._counters.items()
        }
        payload["hit_rate"] = self.hit_rate()
        return payload


class PlanCache:
    """Two-tier (in-process LRU + disk JSON) execution-plan cache.

    Parameters
    ----------
    directory:
        Disk-store location.  ``None`` keeps the cache memory-only; the
        directory (with a leading ``~`` expanded) is created on first
        write otherwise.
    max_memory_entries:
        LRU capacity of the in-process tier.  Evicted entries remain
        loadable from disk when a directory is configured.
    verify:
        Semantically verify disk entries at load time (default on).  A
        corrupt, stale or invariant-violating entry — including one whose
        tile footprint overflows the fingerprinted device — is treated as
        a miss and counted in :class:`CacheStats`, so the request falls
        through to a cold compile instead of serving a bad plan.  A
        serving fleet's front end reads its workers' plans through the
        same path, so it verifies every plan before serving it.

    All operations are thread-safe;
    :meth:`~repro.api.FlashFuser.compile_chains` relies on this to fan
    compile jobs across a worker pool with a shared cache.

    Example
    -------
    ::

        from repro import FlashFuser, PlanCache

        cache = PlanCache(directory="~/.cache/flashfuser")
        with FlashFuser(cache=cache) as compiler:
            compiler.compile_workload("G4")     # cold: search + store
            compiler.compile_workload("G4")     # warm: memory-tier hit
        print(cache.stats.to_dict())            # hits, misses, tiers
        # A new process pointing at the same directory starts warm (disk tier).
    """

    def __init__(
        self,
        directory: Optional[Union[str, os.PathLike]] = None,
        max_memory_entries: int = 128,
        verify: bool = True,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.directory = (
            Path(directory).expanduser() if directory is not None else None
        )
        if self.directory is not None and self.directory.exists() and not self.directory.is_dir():
            raise ValueError(f"cache directory {self.directory} is not a directory")
        self.max_memory_entries = max_memory_entries
        self.stats = CacheStats()
        self._verifier = PlanVerifier() if verify else None
        self._lock = make_lock("plan-cache", reentrant=True)
        self._entries: "OrderedDict[str, PlanCacheEntry]" = OrderedDict()
        # Rehydrated kernels memoized per (key, served chain name) so hot
        # requests skip re-lowering; bounded by the same LRU capacity.
        self._kernels: "OrderedDict[tuple, CompiledKernel]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #
    def key_for(
        self,
        chain: GemmChainSpec,
        device: HardwareSpec,
        search_config: Optional[Dict[str, object]] = None,
    ) -> str:
        """Compute the cache key for one compilation request."""
        return plan_cache_key(chain, device, search_config)

    # ------------------------------------------------------------------ #
    # Entry-level interface
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[PlanCacheEntry]:
        """Look an entry up, promoting disk hits into the memory tier.

        The disk read happens outside the lock so concurrent warm lookups
        of different keys do not serialize on file I/O; a racing promotion
        of the same key is harmless (both threads read identical content).
        """
        with tracer().span("cache.get", key=key[:16]) as span:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.stats.inc("memory_hits")
                    span.set("tier", TIER_MEMORY)
                    return entry
            entry = self._read_disk(key)
            with self._lock:
                if entry is not None:
                    self.stats.inc("disk_hits")
                    self._remember(key, entry)
                    span.set("tier", TIER_DISK)
                    return entry
                promoted = self._entries.get(key)
                if promoted is not None:
                    self._entries.move_to_end(key)
                    self.stats.inc("memory_hits")
                    span.set("tier", TIER_MEMORY)
                    return promoted
                self.stats.inc("misses")
                span.set("tier", None)
                return None

    def put(self, key: str, entry: PlanCacheEntry, write_disk: bool = True) -> None:
        """Insert an entry into the memory tier and (optionally) to disk.

        A failed disk write (full disk, permissions, dying volume) is
        counted in :attr:`CacheStats.io_errors` rather than raised: the
        memory tier still holds the entry, so serving degrades to
        per-process caching instead of failing the request that compiled
        the kernel.
        """
        with self._lock:
            self._remember(key, entry)
            self.stats.inc("stores")
            if write_disk and self.directory is not None:
                try:
                    self._write_disk(key, entry)
                except OSError:
                    self.stats.inc("io_errors")

    def contains(self, key: str) -> bool:
        """Whether either tier holds ``key`` (without counting a lookup)."""
        with self._lock:
            if key in self._entries:
                return True
        return self.directory is not None and self._disk_path(key).exists()

    # ------------------------------------------------------------------ #
    # Kernel-level interface (what FlashFuser calls)
    # ------------------------------------------------------------------ #
    def lookup(
        self, key: str, chain: Optional[GemmChainSpec] = None
    ) -> Tuple[Optional[CompiledKernel], Optional[str]]:
        """The cached kernel for ``key`` and the tier that held it.

        One probe: the memory tier, then the disk store (a disk hit is
        promoted into memory).  Returns ``(kernel, TIER_MEMORY)``,
        ``(kernel, TIER_DISK)`` or ``(None, None)`` on a miss.
        Rehydration (plan deserialization, IR lowering, source emission)
        runs outside the lock so parallel workers sharing this cache do not
        serialize on it; racing threads may rehydrate the same entry twice,
        which costs a few milliseconds and yields equivalent kernels.
        """
        memo_key = (key, chain.name if chain is not None else None)
        with self._lock:
            kernel = self._kernels.get(memo_key)
            if kernel is not None:
                self._kernels.move_to_end(memo_key)
                self.stats.inc("memory_hits")
                return kernel, TIER_MEMORY
            tier = TIER_MEMORY if key in self._entries else TIER_DISK
        entry = self.get(key)
        if entry is None:
            return None, None
        with tracer().span(
            "cache.rehydrate", chain=chain.name if chain is not None else None
        ):
            kernel = entry.rehydrate(chain=chain)
        with self._lock:
            existing = self._kernels.get(memo_key)
            if existing is not None:
                return existing, tier
            self._kernels[memo_key] = kernel
            while len(self._kernels) > self.max_memory_entries:
                self._kernels.popitem(last=False)
        return kernel, tier

    def store_kernel(
        self,
        key: str,
        kernel: CompiledKernel,
        device: Optional[HardwareSpec] = None,
        search_config: Optional[Dict[str, object]] = None,
    ) -> PlanCacheEntry:
        """Serialize and store a freshly compiled kernel.

        ``device`` and ``search_config`` (when the caller knows them, as
        :meth:`repro.api.FlashFuser.compile_request` does) are embedded in
        the entry so loads can recompute the key from the payload and
        re-check the plan against the fingerprinted device.
        """
        entry = PlanCacheEntry.from_kernel(
            key, kernel, device=device, search_config=search_config
        )
        with self._lock:
            self.put(key, entry)
            memo_key = (key, kernel.plan.chain.name)
            self._kernels[memo_key] = kernel
            while len(self._kernels) > self.max_memory_entries:
                self._kernels.popitem(last=False)
        return entry

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def disk_keys(self) -> List[str]:
        """Keys currently present in the disk store."""
        if self.directory is None or not self.directory.exists():
            return []
        return sorted(path.stem for path in self.directory.glob("*.json"))

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier; with ``disk=True`` also delete disk entries."""
        with self._lock:
            self._entries.clear()
            self._kernels.clear()
            if disk and self.directory is not None and self.directory.exists():
                for path in self.directory.glob("*.json"):
                    path.unlink(missing_ok=True)
                # Also sweep staging leftovers from writers that died mid-write.
                for path in self.directory.glob("*.tmp.*"):
                    path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _remember(self, key: str, entry: PlanCacheEntry) -> None:
        # Callers must hold the cache lock; checked when the lock-order
        # detector is active (see repro.analysis.locks).
        require_held(self._lock)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_memory_entries:
            evicted_key, _ = self._entries.popitem(last=False)
            self.stats.inc("evictions")
            # Drop rehydrated kernels belonging to the evicted entry too.
            for memo_key in [k for k in self._kernels if k[0] == evicted_key]:
                del self._kernels[memo_key]

    def _disk_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _read_disk(self, key: str) -> Optional[PlanCacheEntry]:
        """Load, classify and verify one disk entry (``None`` on failure).

        Every failure mode is counted separately in :attr:`stats`: read
        I/O errors, stale format versions, corrupt payloads, and entries
        that parse but fail semantic verification (capacity overflow,
        illegal schedule, key disagreement).  All of them surface to the
        caller as a plain miss, so the serve path transparently recompiles
        — and the recompile back-fills this same key with a good entry.
        """
        if self.directory is None:
            return None
        path = self._disk_path(key)
        try:
            blob = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            with self._lock:
                self.stats.inc("io_errors")
            return None
        try:
            entry = PlanCacheEntry.parse(blob)
        except StaleCacheEntry:
            with self._lock:
                self.stats.inc("stale_entries")
            return None
        except CorruptCacheEntry:
            with self._lock:
                self.stats.inc("corrupt_entries")
            return None
        if self._verifier is not None:
            violations = self._verifier.verify_entry(entry, expected_key=key)
            if violations:
                with self._lock:
                    self.stats.inc("rejected_entries")
                log_event(
                    _logger,
                    "cache-entry-rejected",
                    level=logging.WARNING,
                    key=key[:16],
                    violations=len(violations),
                )
                return None
        return entry

    def _write_disk(self, key: str, entry: PlanCacheEntry) -> None:
        """Atomically publish one entry to the shared disk store.

        Fleet workers point several *processes* at one directory, so the
        write path must guarantee that a reader never observes a torn file
        and that concurrent same-key writers cannot corrupt each other:

        * each writer stages into its own temp file (unique per process and
          thread), flushed and fsynced before publication;
        * publication is a single atomic ``os.replace`` — racing same-key
          writers simply take turns being the visible version, and both
          versions deserialize to equivalent plans;
        * a writer that fails mid-stage removes its temp file and leaves the
          previously published version untouched.
        """
        assert self.directory is not None
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._disk_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(entry.to_json())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
