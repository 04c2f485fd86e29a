"""Tiny-size tests of the benchmark's own code.

Run from the root of the checkout:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
from calibrate import REFERENCE_S, SpeedGauge  # noqa: E402
from tracing import MODULES, PACKAGE, Tracer  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_generator_is_deterministic_per_seed():
    assert generate.random_small(7, count=12) == generate.random_small(7, count=12)
    assert generate.random_small(7, count=12) != generate.random_small(8, count=12)
    assert generate.closure_refined(3, ROOT) == generate.closure_refined(3, ROOT)


def test_every_draw_is_valid():
    configs = generate.random_small(11, count=40)
    nodes = generate.check_draws(configs, ROOT)
    assert len(nodes) == 40 and all(10 <= n < 100 for n in nodes)
    for config in configs:
        assert config["sources"] == {"mode": "closure"}
        if "noether" in config["checks"]:
            assert "potential" in config
            assert {f["preset"] for f in config["virtual_fields"].values()} == {"constant"}


def test_refined_scenarios_change_only_quadrature():
    bundled = {config["name"]: config for config in generate.load_bundled(ROOT)}
    refined = generate.closure_refined(5, ROOT)
    assert sorted(c["name"] for c in refined) == sorted(generate.REFINED_ORDERS)
    for config in refined:
        original = dict(bundled[config["name"]])
        assert config["quadrature"]["volume_order"] > original["quadrature"]["volume_order"]
        assert {k: v for k, v in config.items() if k != "quadrature"} == \
            {k: v for k, v in original.items() if k != "quadrature"}
    assert generate.check_draws(refined, ROOT)


def _snapshot():
    import importlib

    state = {}
    for short in MODULES + ("",):
        module = importlib.import_module(f"{PACKAGE}.{short}" if short else PACKAGE)
        state[module.__name__] = dict(vars(module))
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE):
                state[obj.__module__ + "." + obj.__qualname__] = dict(vars(obj))
    return state


def test_tracer_rebinds_everywhere_and_restores_originals():
    from relpower import cli, scenarios, tensors

    before = _snapshot()
    original = tensors.as_vector
    tracer = Tracer()
    with tracer:
        assert tensors.as_vector is not original
        assert scenarios.as_vector is tensors.as_vector  # the from-import binding
        assert cli.validate_config is scenarios.validate_config
        scenarios.as_vector([1.0, 2.0, 3.0])
    assert tracer.calls["tensors.as_vector"] == 1
    assert tensors.as_vector is original
    assert _snapshot() == before


def _tiny_plan(tmp_path, workload, trace):
    configs = generate.random_small(5, count=2)
    tmp_path.mkdir()
    paths = []
    for config in configs:
        path = tmp_path / f"{config['name']}.json"
        path.write_text(json.dumps(config))
        paths.append(str(path))
    return {"workload": workload, "seconds": 0.0, "min_passes": 2, "trace": trace,
            "setup_probes": 1, "config_paths": paths, "names": [c["name"] for c in configs],
            "work_dir": str(tmp_path / "work"), "result": str(tmp_path / "result.json"),
            "trace_out": str(tmp_path / "trace.json")}, generate.check_draws(configs, ROOT)


def test_every_metric_is_emitted(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    spec = _spec()
    for trace in (False, True):
        plan, nodes = _tiny_plan(tmp_path / str(trace), "random_small", trace)
        os.makedirs(plan["work_dir"])
        plan_path = os.path.join(plan["work_dir"], "plan.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(plan, handle)
        assert child.main(plan_path) == 0
        with open(plan["result"], encoding="utf-8") as handle:
            result = json.load(handle)
        attempted, failed, _gates, problems = run.tally(result, plan["names"], False)
        assert (attempted, failed, problems) == (4, 0, [])
        if trace:
            emitted = result["layers"]["metrics"]
            expected = spec["per_layer"]
        else:
            emitted, _samples, _raw = run.end_to_end(result, sum(nodes))
            expected = spec["end_to_end"]
        assert sorted(emitted) == sorted(m["name"] for m in expected)
        for metric in expected:
            value = emitted[metric["name"]]
            unit = value["unit"] if trace else value[1]
            assert unit == metric["unit"]


def test_bundled_shape_emits_end_to_end_metrics():
    names = ["a", "b"]
    both = {"digests": {"a": "x", "b": "y"}, "consistent": {"a": True, "b": True},
            "codes": {"a": 0, "b": 0}}
    scenario = {"start": 0.0, "end": 0.1, "factor": 1.0, "code": 0, "error": None}
    in_process = dict(both, kind="in_process", start=0.0, end=0.2, factor=1.0,
                      scenarios=[scenario, dict(scenario, end=0.2)])
    sub = dict(both, kind="subprocess", start=10.0, end=14.0, factor=2.0, code=0,
               stdout="PASS a\nPASS b\n", peak_rss_mb=50.0)
    result = {"passes": [in_process, sub, sub], "peak_rss_mb": 40.0,
              "setups": [{"raw_s": 0.3, "factor": 1.5}]}
    metrics, _samples, raw = run.end_to_end(result, 100)
    # the subprocess took 4 s at half the reference speed: 2 reference seconds
    assert metrics["wall_s"][0] == 2.0 and raw["wall_s"] == [4.0, 4.0]
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    assert metrics["peak_rss_mb"][0] == 50.0
    assert sorted(metrics) == sorted(m["name"] for m in _spec()["end_to_end"])
    assert run.tally(result, names, True)[:3] == (6, 0, 0)
    failing = dict(sub, code=1, stdout="PASS a\nFAIL b\n", codes={"a": 0, "b": 1})
    attempted, failed, gates, problems = run.tally(
        {"passes": [in_process, sub, failing]}, names, True)
    assert (attempted, failed, gates) == (6, 0, 1) and "exited 1" in problems[0]


def test_speed_factor_uses_kernel_times_near_the_interval():
    gauge = SpeedGauge()
    gauge.samples = [(0.0, REFERENCE_S), (5.0, 2 * REFERENCE_S), (5.5, 4 * REFERENCE_S)]
    assert gauge.factor(0.0, 0.5) == 1.0
    assert gauge.factor(5.0, 5.2) == 3.0
    assert gauge.factor(20.0, 21.0) == 4.0   # no sample near: the nearest one


def _pass(code=0, digest="x", error=None):
    record = {"start": 0.0, "end": 0.1, "factor": 1.0, "code": code, "error": error}
    return {"kind": "in_process", "scenarios": [record], "codes": {"a": code},
            "digests": {"a": digest}, "consistent": {"a": code in (0, 1)}}


@pytest.mark.parametrize("code, error, failed, gates", [
    (1, None, 0, 2),
    (2, None, 2, 0),
    (None, "Traceback", 2, 0),
])
def test_tally_classifies_outcomes(code, error, failed, gates):
    passes = [_pass(), _pass(code, error=error), _pass(code, error=error)]
    attempted, got_failed, got_gates, _ = run.tally({"passes": passes}, ["a"], False)
    assert (attempted, got_failed, got_gates) == (3, failed, gates)


def test_tally_flags_reports_that_differ():
    attempted, failed, _gates, problems = run.tally(
        {"passes": [_pass(), _pass(digest="y")]}, ["a"], False)
    assert (attempted, failed) == (2, 1) and "differ" in problems[0]
