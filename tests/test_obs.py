"""Tests for the observability layer (`repro.obs`).

Covers the metrics primitives (shared percentile math, exact-merge log
histograms, the registry and its Prometheus rendering), the span tracer
(IDs, nesting, thread and process propagation, JSONL export), the trace
summarizer/CLI, structured logging, and the two end-to-end contracts the
layer promises: a 2-worker fleet replay whose span files stitch into
complete traces, and bit-identical serving behaviour with tracing on vs
off.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.api import FlashFuser
from repro.bench.driver import LoadDriver, RequestRecord
from repro.bench.report import PerfReport
from repro.bench.report import percentile as report_percentile
from repro.bench.traces import cold_warm_trace, poisson_trace
from repro.config import FuserConfig
from repro.obs import trace as obs_trace
from repro.obs.logging import format_event, get_logger, log_event
from repro.obs.metrics import (
    BUCKETS_PER_DECADE,
    Histogram,
    MetricsRegistry,
    bucket_bound,
    bucket_index,
    histogram_quantile,
    percentile,
    weighted_percentile,
)
from repro.obs.summary import (
    critical_path,
    load_spans,
    orphan_spans,
    stitch,
    summarize,
    to_chrome_trace,
)
from repro.obs.trace import SpanContext, Tracer, tracer
from repro.runtime.server import KernelServer
from repro.runtime.stats import LatencySummary, ServingStats

#: Cheapest search knobs — some tests pay real compiles.
FAST = dict(top_k=1, max_tile=64)


@pytest.fixture(autouse=True)
def _clean_tracing(monkeypatch):
    """Every test starts with tracing off and an empty span buffer."""
    monkeypatch.delenv(obs_trace.ENV_VAR, raising=False)
    monkeypatch.delenv(obs_trace.ENV_DIR, raising=False)
    obs_trace.reset()
    tracer().clear()
    yield
    obs_trace.reset()
    tracer().clear()


# --------------------------------------------------------------------- #
# Percentile math (the single shared implementation)
# --------------------------------------------------------------------- #
class TestPercentiles:
    def test_unit_weight_matches_classic_estimator(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 25.0
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0

    def test_report_percentile_is_the_same_function(self):
        assert report_percentile is percentile

    def test_weighted_expansion_equivalence(self):
        # Integer weights behave exactly like repeating the values.
        values, weights = [5.0, 10.0, 50.0], [3, 2, 1]
        expanded = [5.0, 5.0, 5.0, 10.0, 10.0, 50.0]
        for q in (0, 10, 25, 50, 75, 90, 100):
            assert weighted_percentile(values, weights, q) == pytest.approx(
                percentile(expanded, q)
            )

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            weighted_percentile([1.0], [1.0, 2.0], 50)
        with pytest.raises(ValueError):
            weighted_percentile([1.0], [1.0], 101)
        with pytest.raises(ValueError):
            weighted_percentile([1.0], [0.0], 50)


class TestLogBuckets:
    def test_boundaries_are_process_independent_constants(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(1.0) == 0
        assert bucket_index(10.0) == BUCKETS_PER_DECADE
        assert bucket_index(100.0) == 2 * BUCKETS_PER_DECADE
        # Every value lands at or below its bucket's upper bound.
        for value in (0.5, 1.0, 3.7, 42.0, 999.0, 1e6):
            assert value <= bucket_bound(bucket_index(value)) * (1 + 1e-12)

    def test_histogram_quantile_clamps_to_extremes(self):
        buckets = {bucket_index(42.0): 1}
        assert histogram_quantile(buckets, 50, 42.0, 42.0) == 42.0
        assert histogram_quantile({}, 50) == 0.0

    def test_merge_is_exact(self):
        # Merging two histograms equals observing the union: the property
        # that makes fleet-wide p50/p95 well defined.
        values_a = [3.0, 17.0, 950.0, 950.0]
        values_b = [1.0, 17.0, 40000.0]
        one, other, union = Histogram(), Histogram(), Histogram()
        for value in values_a:
            one.observe(value)
        for value in values_b:
            other.observe(value)
        for value in values_a + values_b:
            union.observe(value)
        assert one.merge(other).snapshot() == union.snapshot()

    def test_counter_and_gauge_semantics(self):
        histogram = Histogram()
        with pytest.raises(ValueError):
            histogram.observe(-1.0)
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("repro_x_total").inc(-1)
        registry.counter("repro_x_total").inc(2)
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")  # kind mismatch


# --------------------------------------------------------------------- #
# MetricsRegistry
# --------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_samples_are_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_requests_total", worker="0")
        second = registry.counter("repro_requests_total", worker="0")
        assert first is second
        assert registry.counter("repro_requests_total", worker="1") is not first

    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_served_total", "Requests").inc(3)
        histogram = registry.histogram("repro_latency_us", source="table")
        for value in (10.0, 20.0, 900.0):
            histogram.observe(value)
        text = registry.prometheus_text()
        assert "# TYPE repro_served_total counter" in text
        assert "repro_served_total 3" in text
        assert "# TYPE repro_latency_us histogram" in text
        assert 'repro_latency_us_count{source="table"} 3' in text
        assert 'le="+Inf"' in text
        # Cumulative bucket counts end at the total count.
        bucket_lines = [
            line for line in text.splitlines() if "_bucket{" in line
        ]
        assert bucket_lines[-1].endswith(" 3")

    def test_publish_serving_stats_round_trip(self):
        stats = ServingStats()
        stats.record_request("G1", "table", 10.0)
        stats.record_request("G1", "compiled", 900.0)
        registry = MetricsRegistry()
        registry.publish_serving_stats(stats.to_dict())
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        assert snapshot["counters"]["repro_serving_requests_total"] == 2
        overall = snapshot["histograms"]["repro_serving_overall_latency_us"]
        assert overall["count"] == 2
        assert overall["p50"] == stats.overall_latency.quantile(50)

    def test_snapshot_is_deterministic(self):
        def build(order):
            registry = MetricsRegistry()
            for worker in order:
                registry.gauge("repro_depth", worker=worker).set(int(worker))
            return json.dumps(registry.snapshot())

        assert build(["0", "1"]) == build(["1", "0"])


# --------------------------------------------------------------------- #
# Histogram-backed percentiles in the serving stats
# --------------------------------------------------------------------- #
class TestLatencySummaryPercentiles:
    def test_snapshot_reports_p50_p95(self):
        summary = LatencySummary()
        summary.record(42.0)
        snapshot = summary.snapshot()
        assert snapshot["p50_us"] == 42.0
        assert snapshot["p95_us"] == 42.0
        assert snapshot["buckets"] == {str(bucket_index(42.0)): 1}

    def test_percentiles_exact_under_merge(self):
        # Two workers' summaries merge into exactly the union's summary —
        # including the histogram, so p50/p95 agree with a single observer.
        one, other, union = ServingStats(), ServingStats(), ServingStats()
        for value in (10.0, 30.0, 900.0):
            one.record_request("G1", "table", value)
            union.record_request("G1", "table", value)
        for value in (20.0, 40000.0):
            other.record_request("G1", "table", value)
            union.record_request("G1", "table", value)
        merged = one.merge(other)
        assert merged.to_dict() == union.to_dict()

    def test_snapshot_round_trip_keeps_buckets(self):
        summary = LatencySummary()
        for value in (5.0, 500.0):
            summary.record(value)
        restored = LatencySummary.from_snapshot(summary.snapshot())
        assert restored.snapshot() == summary.snapshot()


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #
class TestTracer:
    def test_off_by_default_and_null_scopes(self):
        with tracer().root("request") as span:
            # The null span accepts attributes and reports no identity.
            span.set("k", "v")
            assert span.trace_id is None
        assert tracer().spans() == []
        assert tracer().capture() is None
        assert tracer().wire_context() is None

    def test_nesting_builds_one_trace(self):
        obs_trace.enable()
        with tracer().root("request", m=64) as root:
            with tracer().span("server.request") as child:
                with tracer().span("server.compile") as grandchild:
                    pass
        spans = {record["name"]: record for record in tracer().spans()}
        assert spans["server.request"]["parent_id"] == root.span_id
        assert spans["server.compile"]["parent_id"] == child.span_id
        assert (
            spans["request"]["trace_id"]
            == spans["server.request"]["trace_id"]
            == spans["server.compile"]["trace_id"]
        )
        assert spans["request"]["attrs"] == {"m": 64}
        assert grandchild.trace_id == root.trace_id

    def test_ids_are_deterministic_per_tracer(self):
        obs_trace.enable()
        local = Tracer(process_tag="t")
        with local.root("a") as first:
            pass
        with local.root("b") as second:
            pass
        assert first.trace_id == "t-t00001"
        assert second.trace_id == "t-t00002"
        assert first.span_id == "t-s000001"

    def test_capture_activate_crosses_threads(self):
        import threading

        obs_trace.enable()
        with tracer().root("request") as root:
            ctx = tracer().capture()

            def worker():
                with tracer().activate(ctx):
                    with tracer().span("pool.task"):
                        pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        spans = {record["name"]: record for record in tracer().spans()}
        assert spans["pool.task"]["parent_id"] == root.span_id
        assert spans["pool.task"]["trace_id"] == root.trace_id

    def test_wire_context_adopt_and_emit(self):
        obs_trace.enable()
        with tracer().root("request") as root:
            wire = tracer().wire_context()
        assert wire[0] == root.trace_id and wire[1] == root.span_id
        # A "remote" tracer adopts the wire tuple: its spans join the trace.
        remote = Tracer(process_tag="w0-i0")
        with remote.adopt(wire):
            remote.emit(
                "worker.queue_wait",
                start_us=float(wire[2]),
                end_us=obs_trace.now_us(),
            )
            with remote.span("worker.serve"):
                pass
        names = {record["name"]: record for record in remote.spans()}
        assert names["worker.serve"]["trace_id"] == root.trace_id
        assert names["worker.serve"]["parent_id"] == root.span_id
        assert names["worker.queue_wait"]["parent_id"] == root.span_id
        assert names["worker.queue_wait"]["dur_us"] >= 0.0

    def test_flush_appends_jsonl(self, tmp_path):
        obs_trace.enable()
        local = Tracer(process_tag="flush")
        with local.root("request"):
            pass
        target = tmp_path / "spans.jsonl"
        assert local.flush(target) == target
        with local.root("request"):
            pass
        local.flush(target)
        records = [
            json.loads(line)
            for line in target.read_text().strip().splitlines()
        ]
        assert [record["name"] for record in records] == ["request", "request"]
        assert list(records[0]) == [
            "name",
            "trace_id",
            "span_id",
            "parent_id",
            "process",
            "thread",
            "start_us",
            "dur_us",
            "attrs",
        ]
        # Without a path or REPRO_TRACE_DIR the buffer is kept.
        with local.root("kept"):
            pass
        assert local.flush() is None
        assert local.spans()


# --------------------------------------------------------------------- #
# Summaries and the CLI
# --------------------------------------------------------------------- #
def _sample_spans():
    return [
        {
            "name": "request",
            "trace_id": "m-t1",
            "span_id": "m-s1",
            "parent_id": None,
            "process": "main",
            "thread": "t",
            "start_us": 0.0,
            "dur_us": 100.0,
            "attrs": {},
        },
        {
            "name": "server.request",
            "trace_id": "m-t1",
            "span_id": "m-s2",
            "parent_id": "m-s1",
            "process": "main",
            "thread": "t",
            "start_us": 10.0,
            "dur_us": 80.0,
            "attrs": {"source": "table"},
        },
        {
            "name": "request",
            "trace_id": "m-t2",
            "span_id": "m-s3",
            "parent_id": None,
            "process": "main",
            "thread": "t",
            "start_us": 200.0,
            "dur_us": 10.0,
            "attrs": {},
        },
    ]


class TestSummary:
    def test_stitch_orphans_and_critical_path(self):
        spans = _sample_spans()
        traces = stitch(spans)
        assert sorted(traces) == ["m-t1", "m-t2"]
        assert [span["span_id"] for span in traces["m-t1"]] == ["m-s1", "m-s2"]
        assert orphan_spans(spans) == []
        path = critical_path(traces["m-t1"])
        assert [span["name"] for span in path] == ["request", "server.request"]
        # Drop the root: its child becomes an orphan.
        assert orphan_spans(spans[1:2]) == spans[1:2]

    def test_summarize_payload_shape(self):
        summary = summarize(_sample_spans())
        assert list(summary) == [
            "spans",
            "traces",
            "orphans",
            "stages",
            "trace_durations_us",
            "slowest_trace",
            "critical_path",
        ]
        assert summary["spans"] == 3
        assert summary["traces"] == 2
        assert summary["orphans"] == 0
        assert summary["slowest_trace"] == "m-t1"
        assert summary["stages"]["request"]["count"] == 2

    def test_chrome_trace_events(self):
        payload = to_chrome_trace(_sample_spans())
        assert len(payload["traceEvents"]) == 3
        event = payload["traceEvents"][1]
        assert event["ph"] == "X"
        assert event["pid"] == "main"
        assert event["args"]["source"] == "table"

    def test_cli_summarize(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        spans_file = tmp_path / "spans.jsonl"
        spans_file.write_text(
            "\n".join(json.dumps(span) for span in _sample_spans()) + "\n"
        )
        chrome = tmp_path / "chrome.json"
        code = main(
            [
                "summarize",
                str(spans_file),
                "--chrome",
                str(chrome),
                "--fail-on-orphans",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "3 spans in 2 trace(s), 0 orphan(s)" in output
        assert "critical path" in output
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_cli_fails_on_orphans_and_empty_input(self, tmp_path):
        from repro.obs.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["summarize", str(empty)]) == 1
        orphan = tmp_path / "orphan.jsonl"
        orphan.write_text(json.dumps(_sample_spans()[1]) + "\n")
        assert main(["summarize", str(orphan), "--fail-on-orphans"]) == 1
        assert main(["summarize", str(orphan)]) == 0


# --------------------------------------------------------------------- #
# Structured logging
# --------------------------------------------------------------------- #
class TestLogging:
    def test_format_event_shape(self):
        assert (
            format_event("worker-start", worker=0, incarnation=1)
            == "event=worker-start worker=0 incarnation=1"
        )
        assert format_event("x", path="a b") == 'event=x path="a b"'

    def test_loggers_live_under_repro_namespace(self):
        assert get_logger("fleet.router").name == "repro.fleet.router"
        assert get_logger("repro.fleet.router").name == "repro.fleet.router"

    def test_log_event_emits_one_line(self, caplog):
        logger = get_logger("obs.test")
        with caplog.at_level(logging.INFO, logger="repro.obs.test"):
            log_event(logger, "cache-entry-rejected", key="abc", violations=2)
        assert caplog.messages == [
            "event=cache-entry-rejected key=abc violations=2"
        ]


# --------------------------------------------------------------------- #
# End-to-end: traced replay, stages block, bit-identity
# --------------------------------------------------------------------- #
class TestTracedReplay:
    def test_records_tagged_and_report_gains_stages(self):
        obs_trace.enable()
        base = poisson_trace(["G1"], num_requests=4, m_choices=(8,), seed=3)
        trace = cold_warm_trace(base, m_bins=(64,))
        with KernelServer(
            config=FuserConfig(**FAST), m_bins=(64,)
        ) as server:
            with LoadDriver(server) as driver:
                result = driver.replay(trace)
        assert all(record.trace_id for record in result.records)
        assert len({record.trace_id for record in result.records}) == len(
            result.records
        )
        compiled = [r for r in result.records if r.source == "compiled"]
        assert compiled and all(r.phase_times_us for r in compiled)
        report = result.report(name="traced")
        stages = report.to_dict()["stages"]
        assert stages["covered_requests"] == len(compiled)
        assert set(stages["total_us"]) >= {"analyze"}
        assert stages["fraction"]
        assert any(
            line.strip().startswith("compile wall:")
            for line in report.summary_lines()
        )
        # Request spans landed in the buffer, one per record.
        names = [span["name"] for span in tracer().spans()]
        assert names.count("request") == len(result.records)

    def test_stages_block_absent_without_phase_times(self):
        report = PerfReport.from_records(
            [
                RequestRecord(
                    index=0,
                    phase="warm",
                    kind="kernel",
                    target="G1",
                    m=8,
                    arrival_s=0.0,
                    queue_depth=0,
                    wall_us=10.0,
                    source="table",
                )
            ],
            name="no-stages",
        )
        stages = report.to_dict()["stages"]
        assert stages["covered_requests"] == 0
        assert stages["total_us"] == {}


class TestTracingNeutrality:
    def test_trace_is_not_a_cache_key_field(self):
        config = FuserConfig(trace=True)
        assert "trace" not in config.cache_key_fields()
        assert config.to_dict()["trace"] is True
        assert FuserConfig.from_dict(config.to_dict()) == config

    def test_serving_is_bit_identical_with_tracing_on(self, tmp_path):
        from repro.runtime.cache import plan_cache_key

        def compile_once():
            with FlashFuser(FuserConfig(**FAST)) as compiler:
                kernel = compiler.compile_workload("G1", m=64)
                key = plan_cache_key(
                    kernel.plan.chain,
                    compiler.config.resolve_device(),
                    compiler.config.cache_key_fields(),
                )
                return (
                    json.dumps(kernel.plan.to_dict(), sort_keys=True),
                    kernel.source,
                    key,
                )

        baseline = compile_once()
        obs_trace.enable(out_dir=tmp_path)
        traced = compile_once()
        obs_trace.disable()
        assert traced == baseline


# --------------------------------------------------------------------- #
# Fleet: span files from two worker processes stitch into one trace
# --------------------------------------------------------------------- #
class TestFleetTraceStitching:
    def test_two_worker_replay_stitches_without_orphans(self, tmp_path):
        from repro.fleet import FleetConfig, ServingFleet

        span_dir = tmp_path / "spans"
        span_dir.mkdir()
        obs_trace.enable(out_dir=span_dir)
        with ServingFleet(
            FleetConfig(workers=2, top_k=2, max_tile=64)
        ) as fleet:
            assert fleet.serve("G4", m=64).ok
            assert fleet.serve("G1", m=64).ok
            assert fleet.serve("G4", m=64).ok
        tracer().flush(span_dir / "spans-main.jsonl")
        spans = load_spans([span_dir])
        assert spans, "no spans were written"
        assert orphan_spans(spans) == []
        traces = stitch(spans)
        # At least one trace crosses the process boundary: the router's
        # dispatch span (main) and the worker's serve chain share an id.
        crossing = [
            records
            for records in traces.values()
            if {span["process"] for span in records} != {"main"}
        ]
        assert crossing, "no trace crossed the router/worker boundary"
        names = {span["name"] for span in crossing[0]}
        assert "router.dispatch" in names
        assert "worker.compile" in names
        assert "server.request" in names
        summary = summarize(spans)
        assert summary["orphans"] == 0
        assert summary["traces"] >= 3
