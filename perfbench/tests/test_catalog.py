"""BENCHMARK.json names exactly what the benchmark prints."""

import json
from pathlib import Path

from perfbench import layers, run

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _benchmark():
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def test_workloads_match():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_match():
    declared = [(m["name"], m["unit"]) for m in _benchmark()["end_to_end"]]
    assert declared == list(run.END_TO_END_UNITS)


def test_per_layer_metrics_match_the_catalog():
    declared = [(m["name"], m["unit"], m["better"]) for m in _benchmark()["per_layer"]]
    catalog = [(name, unit, better) for name, (unit, better, _) in layers.MOVES.items()]
    assert declared == catalog


def test_every_wrapped_entry_point_resolves():
    import importlib

    for target in layers.targets():
        module_name, _, attr_path = target.path.partition(":")
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


def test_reduce_reports_every_catalog_metric_on_an_idle_pass():
    metrics = layers.reduce([])
    assert set(metrics) == set(layers.MOVES)
    assert all(value == 0 for value in metrics.values())
