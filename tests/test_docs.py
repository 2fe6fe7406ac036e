"""Documentation-quality gates for the public API.

Every name exported from ``repro.__all__`` must carry a real docstring — a
summary and a usage example (a doctest or a literal code block) — and the
serialized artifact schemas (:meth:`ServingStats.to_dict`,
:meth:`PerfReport.to_dict`) must keep a stable shape and key order so CI
artifacts diff cleanly across runs.  The examples themselves are executed by
the doctest job (``pytest --doctest-modules`` over the audited modules, see
``.github/workflows/ci.yml``); this module only enforces their presence and
the schema contracts.
"""

from __future__ import annotations

import inspect
import json

import repro
from repro.bench.driver import RequestRecord
from repro.bench.report import PerfReport
from repro.runtime.stats import ServingStats


def _has_example(doc: str) -> bool:
    """A runnable example is a doctest or an indented literal code block."""
    return ">>>" in doc or "::" in doc


class TestPublicDocstrings:
    def test_every_export_is_documented(self):
        undocumented = []
        for name in repro.__all__:
            doc = inspect.getdoc(getattr(repro, name)) or ""
            if len(doc.strip()) < 60:
                undocumented.append(name)
        assert not undocumented, (
            f"public exports with missing/thin docstrings: {undocumented}"
        )

    def test_every_export_has_an_example(self):
        missing = []
        for name in repro.__all__:
            doc = inspect.getdoc(getattr(repro, name)) or ""
            if not _has_example(doc):
                missing.append(name)
        assert not missing, (
            f"public exports without a usage example: {missing}"
        )

    def test_public_callables_document_their_arguments(self):
        """Functions/classes with required parameters must describe them.

        Dataclasses are exempt: their fields are documented as ``#:``
        attribute comments next to the declarations, which
        ``inspect.getdoc`` does not surface.
        """
        import dataclasses

        undescribed = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if not callable(obj) or dataclasses.is_dataclass(obj):
                continue
            doc = inspect.getdoc(obj) or ""
            try:
                target = obj.__init__ if inspect.isclass(obj) else obj
                signature = inspect.signature(target)
            except (TypeError, ValueError):
                continue
            required = [
                parameter.name
                for parameter in signature.parameters.values()
                if parameter.default is inspect.Parameter.empty
                and parameter.kind
                not in (
                    inspect.Parameter.VAR_POSITIONAL,
                    inspect.Parameter.VAR_KEYWORD,
                )
                and parameter.name not in ("self", "cls")
            ]
            for parameter_name in required:
                if parameter_name not in doc:
                    undescribed.append(f"{name}({parameter_name})")
        assert not undescribed, (
            f"required parameters never mentioned in the docstring: {undescribed}"
        )


#: The pinned top-level key order of ServingStats.to_dict().
SERVING_STATS_KEYS = [
    "requests",
    "hits",
    "misses",
    "hit_rate",
    "by_source",
    "by_workload",
    "latency_us",
    "overall_latency_us",
]

#: The pinned top-level key order of PerfReport.to_dict().
PERF_REPORT_KEYS = [
    "schema_version",
    "name",
    "trace",
    "config",
    "concurrency",
    "counts",
    "cache",
    "phases",
    "duration_s",
    "throughput_rps",
    "latency_us",
    "queue_depth",
    "split",
    "speedups",
    "stages",
]


def _records():
    return [
        RequestRecord(
            index=0,
            phase="cold",
            kind="kernel",
            target="G1",
            m=64,
            arrival_s=0.0,
            queue_depth=0,
            wall_us=900.0,
            source="compiled",
        ),
        RequestRecord(
            index=1,
            phase="warm",
            kind="kernel",
            target="G1",
            m=32,
            arrival_s=0.1,
            queue_depth=1,
            wall_us=30.0,
            source="table",
        ),
    ]


class TestSchemaStability:
    def test_serving_stats_key_order_is_pinned(self):
        stats = ServingStats()
        stats.record_request("zeta", "table", 10.0)
        stats.record_request("alpha", "compiled", 900.0)
        payload = stats.to_dict()
        assert list(payload) == SERVING_STATS_KEYS
        # Map-valued sections are key-sorted regardless of insertion order.
        assert list(payload["by_workload"]) == ["alpha", "zeta"]
        assert list(payload["by_source"]) == ["compiled", "table"]
        assert list(payload["latency_us"]) == ["compiled", "table"]

    def test_serving_stats_equal_state_serializes_identically(self):
        first, second = ServingStats(), ServingStats()
        # Same state reached through different insertion orders.
        first.record_request("b", "table", 10.0)
        first.record_request("a", "compiled", 500.0)
        second.record_request("a", "compiled", 500.0)
        second.record_request("b", "table", 10.0)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_perf_report_key_order_is_pinned(self):
        payload = PerfReport.from_records(_records(), name="schema").to_dict()
        assert list(payload) == PERF_REPORT_KEYS
        assert list(payload["latency_us"]) == ["mean", "p50", "p95", "p99", "max"]
        assert list(payload["counts"]) == [
            "requests",
            "errors",
            "by_kind",
            "by_source",
            "by_target",
            "search",
        ]
        assert list(payload["phases"]) == ["cold", "warm"]

    def test_perf_report_json_round_trip(self):
        report = PerfReport.from_records(_records(), name="round-trip")
        assert PerfReport.from_dict(json.loads(report.to_json())) == report

    def test_deterministic_dict_strips_every_timing_field(self):
        fast = PerfReport.from_records(_records(), name="run")
        slow_records = [
            RequestRecord(**{**record.to_dict(), "wall_us": record.wall_us * 7})
            for record in _records()
        ]
        slow = PerfReport.from_records(slow_records, name="run")
        assert fast.to_dict() != slow.to_dict()
        assert fast.deterministic_dict() == slow.deterministic_dict()
