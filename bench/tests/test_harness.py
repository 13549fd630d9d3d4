"""Tests of the benchmark's harness: metric names, tracing and timing."""

import json
import sys
import time
import types
from pathlib import Path

import meter
import run
import tracing

ROOT = Path(__file__).resolve().parents[2]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mb", "primary_s", "secondary_s"}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = dict(run.LAYER_METRICS)
    expected["trace.overhead_pct"] = "%"
    assert layers == expected
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)


def _fake_module():
    module = types.ModuleType("fake_layer")

    def leaf(n):
        return list(range(n))

    def outer(n):
        # looks itself up on the module, as biharm's build does
        return module.leaf(n) if n < 3 else module.outer(n - 1) + module.leaf(n)

    module.leaf, module.outer = leaf, outer
    return module


def test_spans_nest_and_count(monkeypatch):
    module = _fake_module()
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = tracing.Tracer(
        [
            tracing.Hook("fake_layer.outer", "outer"),
            tracing.Hook("fake_layer.leaf", "leaf", counts={"points": lambda a, k, r: len(r)}, nested={"deep": "outer"}),
            tracing.Hook("fake_layer.gone", "gone"),
        ]
    )
    tracer.install()
    bucket = tracer.new_bucket()
    module.outer(4)  # outer(4) -> outer(3) -> outer(2), leaf(2), leaf(3), leaf(4)
    module.leaf(4)
    tracer.uninstall()

    assert tracer.absent == ["fake_layer.gone"]
    assert bucket["outer_calls"] == 3
    assert bucket["leaf_calls"] == 4
    assert bucket["points"] == 2 + 3 + 4 + 4
    assert bucket["deep"] == 2 + 3 + 4  # the leaf calls made under outer
    assert 0 < bucket["outer_self_s"] <= bucket["outer_s"]
    assert module.outer.__name__ == "outer"  # wrappers removed


def test_per_round_adds_setup_to_median_round():
    rounds = [{"x_s": 1.0, "b_max": 3}, {"x_s": 3.0, "b_max": 9}, {"x_s": 2.0}]
    assert tracing.per_round({"x_s": 0.5}, rounds, "x_s") == 2.5
    assert tracing.per_round({"b_max": 4}, rounds, "b_max") == 9


def test_meter_leaves_out_its_calibration_loops():
    m = meter.Meter("python")
    start = time.perf_counter()
    m.time(time.sleep, 0.3)  # the sleep's deadline includes the loops run during it
    wall = time.perf_counter() - start
    # about six loops of a millisecond or two each ran inside the section
    assert 0.2 < m.raw < wall - 0.001
    assert m.sections == [m.normalised] and m.normalised > 0


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "kernel_eval", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
