"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Patches, Recorder, resolve, self_times  # noqa: E402
from stats import (  # noqa: E402
    MIN_BEYOND_TAIL,
    result_line,
    round_tail_ms,
    tail_label,
    tail_per_mille,
    valid_name,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(99, None), (100, 900), (199, 900), (200, 950), (999, 950),
     (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    assert tail_per_mille(count) == expected


@pytest.mark.parametrize("count", [100, 200, 2000, 10000])
def test_tail_leaves_at_least_ten_samples_beyond(count):
    samples = np.arange(1, count + 1) * 1e-3
    per_mille = tail_per_mille(count)
    tail_ms = round_tail_ms(samples, per_mille)
    assert tail_label(per_mille).startswith("p")
    assert np.count_nonzero(samples * 1e3 > tail_ms) >= MIN_BEYOND_TAIL


def test_tail_falls_back_to_maximum_for_few_samples():
    per_mille = tail_per_mille(6)
    assert tail_label(per_mille) == "max"
    assert round_tail_ms([0.004, 0.001, 0.006, 0.002], per_mille) == pytest.approx(6.0)


def test_workload_tails_do_not_depend_on_the_round_count():
    from workloads import WORKLOADS

    labels = {name: tail_label(tail_per_mille(cls.ops_per_round))
              for name, cls in WORKLOADS.items()}
    assert labels == {"torus": "p95", "queries": "p99"}


# metric names --------------------------------------------------------------


@pytest.mark.parametrize("name", ["wall_s", "op_p50_ms", "bem.lu_s",
                                  "embedding.branch.contour-full_s", "7x", "a" * 64])
def test_valid_metric_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a:b", "a/b",
                                  "a" * 65, None])
def test_invalid_metric_names(name):
    assert not valid_name(name)


def test_result_line_rejects_bad_names_and_values():
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"bad name": 1.0}, {"bad name": "s"})
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"x": math.nan}, {"x": "s"})
    line = json.loads(result_line(True, 3, 0, {"x": 2}, {"x": "s"}))
    assert line == {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"x": {"value": 2.0, "unit": "s"}}}


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        tuple(entry) for entry in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        entry[:3] for entry in layers.PER_LAYER
    ]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert all(valid_name(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    from workloads import WORKLOADS

    assert [m["name"] for m in SPEC["workloads"]] == list(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# self time -------------------------------------------------------------------


def test_self_time_subtracts_the_children():
    # 0: [0, 10] holds 1: [1, 3] and 2: [4, 8]; 3: [5, 6] is inside 2;
    # 4: [11, 12] is a second top-level span
    start = [0.0, 1.0, 4.0, 5.0, 11.0]
    end = [10.0, 3.0, 8.0, 6.0, 12.0]
    parent = [-1, 0, 0, 2, -1]
    own = self_times(start, end, parent)
    assert own.tolist() == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_recorder_nests_spans_and_counts_ancestors():
    recorder = Recorder("test")
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    leaf = recorder.begin("leaf")
    recorder.finish(leaf)
    recorder.finish(inner)
    loose = recorder.begin("leaf")
    recorder.finish(loose)
    recorder.finish(outer)
    _, _, _, parent = recorder.arrays()
    assert parent.tolist() == [-1, 0, 1, 0]
    assert recorder.calls_inside("leaf", "inner") == 1
    assert recorder.calls_inside("leaf", "outer") == 2
    totals = recorder.totals()
    calls, inclusive, own = totals["outer"]
    assert calls == 1 and 0.0 <= own <= inclusive


# wrapper install and restore ------------------------------------------------


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake")

    def double(x):
        return 2 * x

    class Thing:
        def value(self, x):
            return x + 1

    module.double = double
    module.Thing = Thing
    monkeypatch.setitem(sys.modules, "perfbench_fake", module)
    return module


def _counting(calls):
    def make(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)

        return wrapper

    return make


def test_patches_wrap_functions_and_methods_then_restore(fake_module):
    double, value = fake_module.double, fake_module.Thing.__dict__["value"]
    calls = []
    with Patches() as patches:
        assert patches.wrap("perfbench_fake:double", _counting(calls))
        assert patches.wrap("perfbench_fake:Thing.value", _counting(calls))
        assert fake_module.double(3) == 6
        assert fake_module.Thing().value(3) == 4
    assert calls == ["double", "value"]
    assert fake_module.double is double
    assert fake_module.Thing.__dict__["value"] is value


def test_patches_restore_when_the_body_raises(fake_module):
    double = fake_module.double
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            patches.wrap("perfbench_fake:double", _counting([]))
            assert fake_module.double is not double
            raise RuntimeError("boom")
    assert fake_module.double is double


def test_missing_targets_are_skipped(fake_module):
    assert resolve("perfbench_fake:absent") is None
    assert resolve("perfbench_fake:Thing.absent") is None
    assert resolve("perfbench_fake:Absent.value") is None
    assert resolve("perfbench_no_such_module:double") is None
    with Patches() as patches:
        assert not patches.wrap("perfbench_fake:absent", _counting([]))


def test_tracer_reports_every_metric_and_restores_embedfar():
    from embedfar import bem, cli, embedding

    originals = (bem.FarField.__dict__["value"], bem.hankel1, cli.build_pipeline,
                 embedding.StabilizedEvaluator.__dict__["evaluate_sweep"])
    config = cli.ExperimentConfig(shape="screen", k=5.0, elements_per_wavelength=6.0)
    tracer = layers.Tracer("test")
    with tracer:
        pipeline = cli.build_pipeline(
            config, canonical=np.asarray([math.pi / 2.0, 3.0 * math.pi / 2.0, math.pi])
        )
        pipeline.evaluator.evaluate_sweep(np.linspace(0.0, 6.0, 50), 2.0)
        pipeline.evaluator.evaluate(1.0, 2.0)
    assert originals == (bem.FarField.__dict__["value"], bem.hankel1, cli.build_pipeline,
                         embedding.StabilizedEvaluator.__dict__["evaluate_sweep"])
    metrics = tracer.metrics()
    expected = {name for name, *_ in layers.PER_LAYER} - {"trace.overhead_s"}
    assert set(metrics) == expected
    assert metrics["embedding.points"] == 51
    assert metrics["embedding.sweep_calls"] == 1
    assert metrics["embedding.point_calls"] == 1
    assert metrics["embedding.farfield_per_numerator"] >= 3
    assert metrics["bem.elements"] > 0


def test_tracer_reports_a_missing_target_as_absent(monkeypatch):
    from embedfar import bem

    monkeypatch.delattr(bem.FarField, "value")
    tracer = layers.Tracer("test")
    with tracer:
        pass
    metrics = tracer.metrics()
    assert "bem.farfield_s" not in metrics
    assert "embedding.farfield_per_numerator" not in metrics
    assert "bem.solve_s" in metrics
