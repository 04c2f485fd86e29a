"""The workload process: runs one workload closed-loop and records what it saw.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``;
takes a plan file and writes a result file, both JSON.  Scenarios run
one after another through ``relpower.cli.main`` in this process.

Untraced, it first times the set-up probes, then repeats whole passes
over the workload's inputs until the time budget is spent, at least two
so that reports can be compared.  For ``bundled_all`` one in-process
pass gives per-scenario latencies and the repeated passes run
``python -m relpower run --all`` as a subprocess, the command users and
CI run.  Traced, it makes one untraced and one traced in-process pass
and derives the per-layer metrics from the trace.

Every timed interval gets the machine-speed factor around it (see
``calibrate.py``); the parent turns raw times into reference seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List

from relpower import cli

from calibrate import SAMPLE_INTERVAL_S, START_CODE, START_REFERENCE_S, SpeedGauge
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SUBPROCESS_TIMEOUT_S = 150


def tree_digests(root: str) -> Dict[str, str]:
    """sha256 over the files of each scenario directory under ``root``."""
    digests = {}
    if not os.path.isdir(root):
        return digests
    for name in sorted(os.listdir(root)):
        directory = os.path.join(root, name)
        digest = hashlib.sha256()
        for entry in sorted(os.listdir(directory)):
            digest.update(entry.encode() + b"\0")
            with open(os.path.join(directory, entry), "rb") as handle:
                digest.update(handle.read())
        digests[name] = digest.hexdigest()
    return digests


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(base, entry))
               for base, _dirs, files in os.walk(root) for entry in files)


def power_gap_max(root: str) -> float:
    """Largest |literal - inner| / (1 + |literal|) over closure scenarios.

    Only closure sources make the two forms equal; report-only.
    """
    worst = 0.0
    for name in sorted(os.listdir(root)):
        try:
            with open(os.path.join(root, name, "manifest.json"), encoding="utf-8") as handle:
                if json.load(handle).get("source_mode") != "closure":
                    continue
            with open(os.path.join(root, name, "power.csv"), encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
        except (OSError, ValueError):
            continue   # missing or broken reports already count as a failure
        for row in rows:
            total, inner = float(row["total"]), float(row["inner"])
            worst = max(worst, abs(total - inner) / (1.0 + abs(total)))
    return worst


def reports_consistent(root: str, name: str, code: int) -> bool:
    """The reports of one scenario agree with each other and its exit code."""
    directory = os.path.join(root, name)
    try:
        with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        with open(os.path.join(directory, "checks.csv"), encoding="utf-8") as handle:
            statuses = [row["status"] for row in csv.DictReader(handle)]
    except (OSError, ValueError, KeyError):
        return False
    passed = all(status == "pass" for status in statuses)
    required = ("power.csv", "balances.csv")
    return (manifest.get("passed") is passed and (code == 0) is passed
            and manifest.get("name") == name
            and all(os.path.exists(os.path.join(directory, f)) for f in required))


def run_scenarios(config_paths: List[str], out_dir: str, gauge: SpeedGauge,
                  background: bool) -> List[dict]:
    """One in-process call of ``cli.main`` per scenario, timed.

    With ``background`` the gauge samples from a timer signal, also in the
    middle of a scenario; otherwise only between scenarios, so that no
    kernel time lands inside a traced call.
    """
    records = []
    with gauge.sampling() if background else contextlib.nullcontext():
        for path in config_paths:
            sink = io.StringIO()
            paused = gauge.paused
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(["run", path, "--out", out_dir])
                error = None
            except Exception:  # a traceback is a failed scenario, not a crash
                code = None
                error = traceback.format_exc(limit=5)
            end = time.perf_counter()
            records.append({"start": start, "end": end, "paused_s": gauge.paused - paused,
                            "code": code, "error": error})
            if not background:
                gauge.maybe_sample()
    return records


def run_all_in_process(out_dir: str) -> dict:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["run", "--all", "--out", out_dir])
        error = None
    except Exception:
        code, error = None, traceback.format_exc(limit=5)
    return {"code": code, "error": error, "stdout": sink.getvalue()}


def run_all_subprocess(out_dir: str, log_path: str, gauge: SpeedGauge) -> dict:
    """``python -m relpower run --all`` with its wall time and peak memory.

    The calibration kernel must share the core with the work it
    calibrates but must not run beside it.  So four times a second the
    subprocess is paused (SIGSTOP), the kernel is timed, and the
    subprocess continues (SIGCONT); the pauses are left out of its wall
    time.  Pausing changes nothing the program computes or writes.
    """
    paused = 0.0
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "relpower", "run", "--all",
                                 "--out", out_dir], stdout=log, stderr=subprocess.STDOUT)
        deadline = start + SUBPROCESS_TIMEOUT_S
        last_sample = start
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            now = time.perf_counter()
            if now > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            if now - last_sample < SAMPLE_INTERVAL_S:
                time.sleep(0.002)
                continue
            os.kill(proc.pid, signal.SIGSTOP)
            pid, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                break   # it exited before the signal arrived
            gauge.sample()
            os.kill(proc.pid, signal.SIGCONT)
            last_sample = time.perf_counter()
            paused += last_sample - now
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8") as log:
        stdout = log.read()
    return {"start": start, "end": end, "paused_s": paused, "code": proc.returncode,
            "stdout": stdout, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _started_until_printed(args: List[str]) -> float:
    """Seconds from spawning a fresh interpreter until it prints the clock."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable] + args, capture_output=True, text=True,
                         timeout=SUBPROCESS_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"probe {args} exited {out.returncode}: {out.stderr[-2000:]}")
    return float(out.stdout.strip().splitlines()[-1]) - spawned


def setup_probes(config_path: str, count: int) -> List[dict]:
    """Set-up times: a fresh interpreter until the CLI is imported and
    ``config_path`` validated, each after a start-up of the dependencies
    alone that calibrates it."""
    probes = []
    for _ in range(count):
        reference = _started_until_printed(["-c", START_CODE])
        raw = _started_until_printed([os.path.join(HERE, "setup_probe.py"), config_path])
        probes.append({"raw_s": raw, "factor": reference / START_REFERENCE_S})
    return probes


def _judge_outputs(record: dict, out_dir: str) -> None:
    """Per scenario: report digest and report consistency with its exit code."""
    record["digests"] = tree_digests(out_dir)
    record["bytes"] = tree_bytes(out_dir) if os.path.isdir(out_dir) else 0
    record["power_gap_max"] = power_gap_max(out_dir) if os.path.isdir(out_dir) else 0.0
    record["consistent"] = {name: reports_consistent(out_dir, name, code)
                            for name, code in record["codes"].items() if code in (0, 1)}


def _all_codes(run: dict, names: List[str]) -> Dict[str, object]:
    """Exit code per scenario of one ``run --all``, from its PASS/FAIL lines."""
    if run["code"] not in (0, 1):
        return {name: run["code"] for name in names}
    status = {}
    for line in run["stdout"].splitlines():
        word, _, name = line.partition(" ")
        if word in ("PASS", "FAIL"):
            status[name] = 0 if word == "PASS" else 1
    return {name: status.get(name) for name in names}


def subprocess_pass(plan: dict, index: int, gauge: SpeedGauge) -> dict:
    base = os.path.join(plan["work_dir"], f"pass{index}")
    os.makedirs(base)
    out_dir = os.path.join(base, "out")
    gauge.sample()
    record = run_all_subprocess(out_dir, os.path.join(base, "run.log"), gauge)
    gauge.sample()
    record["kind"] = "subprocess"
    record["codes"] = _all_codes(record, plan["names"])
    _judge_outputs(record, out_dir)
    shutil.rmtree(base, ignore_errors=True)
    return record


def in_process_pass(plan: dict, index: int, gauge: SpeedGauge) -> dict:
    """One pass through ``cli.main``: per scenario, or one ``run --all``
    for a traced ``bundled_all``."""
    base = os.path.join(plan["work_dir"], f"pass{index}")
    os.makedirs(base)
    out_dir = os.path.join(base, "out")
    names = plan["names"]
    gauge.sample()
    paused = gauge.paused
    record = {"kind": "in_process", "start": time.perf_counter()}
    if plan["workload"] == "bundled_all" and plan["trace"]:
        record["all"] = run_all_in_process(out_dir)
        record["codes"] = _all_codes(record["all"], names)
    else:
        record["scenarios"] = run_scenarios(plan["config_paths"], out_dir, gauge,
                                            background=not plan["trace"])
        record["codes"] = {name: rec["code"] for name, rec in zip(names, record["scenarios"])}
    record["end"] = time.perf_counter()
    record["paused_s"] = gauge.paused - paused
    gauge.sample()
    _judge_outputs(record, out_dir)
    shutil.rmtree(base, ignore_errors=True)
    return record


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict, plan: dict) -> dict:
    calls, units, inclusive = tracer.calls, tracer.units, tracer.inclusive
    module_self = tracer.module_self
    scenarios = len(plan["names"])
    writes = calls["cli.ScenarioRun.write"]
    validations = calls["scenarios.validate_config"]
    builds = calls["scenarios.Scenario.__init__"]
    volume_nodes = units["scenarios.VolumeNodeData.__init__"]
    surface_nodes = units["scenarios.SurfaceNodeData.__init__"]
    # times in reference seconds: divided by the traced pass's speed factor
    speed = traced["factor"]
    ms, us = 1e3 / speed, 1e6 / speed
    raw_wall = traced["end"] - traced["start"] - traced["paused_s"]
    wall = raw_wall / speed
    untraced_wall = ((untraced["end"] - untraced["start"] - untraced["paused_s"])
                     / untraced["factor"])
    codes = traced["codes"]

    def per(total: float, count: int) -> float:
        return total / count if count else 0.0

    node_data = tracer.covered({"scenarios.VolumeNodeData.__init__",
                                "scenarios.SurfaceNodeData.__init__"})
    fixed = tracer.covered({"scenarios.validate_config", "scenarios.Scenario.__init__",
                            "cli.ScenarioRun.write"})
    functionals = tracer.covered({n for n in tracer.inclusive
                                  if n.startswith("functionals.")}) - node_data
    metrics = {
        "cli.write.ms": (per(inclusive["cli.ScenarioRun.write"], writes) * ms, "ms"),
        "cli.bytes_written": (per(traced["bytes"], scenarios), "bytes/scenario"),
        "cli.gate_fail_share": (per(sum(1 for c in codes.values() if c == 1),
                                    scenarios), "share"),
        "cli.self_ms": (module_self["cli"] * ms, "ms"),
        "scenarios.validate_config.calls_per_scenario": (per(validations, scenarios),
                                                         "count"),
        "scenarios.validate_config.ms_per_call": (
            per(inclusive["scenarios.validate_config"], validations) * ms, "ms"),
        "scenarios.Scenario.ms_per_build": (
            per(inclusive["scenarios.Scenario.__init__"], builds) * ms, "ms"),
        "scenarios.volume_data.us_per_node": (
            per(inclusive["scenarios.VolumeNodeData.__init__"], volume_nodes) * us, "us"),
        "scenarios.surface_data.us_per_node": (
            per(inclusive["scenarios.SurfaceNodeData.__init__"], surface_nodes) * us, "us"),
        "scenarios.self_ms": (module_self["scenarios"] * ms, "ms"),
        "configurational.div_first_pk.calls_per_volume_node": (
            per(calls["configurational.div_first_pk"], volume_nodes), "count"),
        "configurational.fd_tensor_divergence.calls": (
            calls["configurational.fd_tensor_divergence"], "count"),
        "configurational.self_ms": (module_self["configurational"] * ms, "ms"),
        "materials.stress.calls": (calls["materials.MaterialModel.stress"], "count"),
        "materials.stress.points": (units["materials.MaterialModel.stress"], "count"),
        "materials.self_ms": (module_self["materials"] * ms, "ms"),
        "fields.deformation_gradient.calls": (
            calls["fields.Motion.deformation_gradient"], "count"),
        "fields.self_ms": (module_self["fields"] * ms, "ms"),
        "tensors.as_vector.calls": (calls["tensors.as_vector"], "count"),
        "tensors.as_tensor.calls": (calls["tensors.as_tensor"], "count"),
        "tensors.self_ms": (module_self["tensors"] * ms, "ms"),
        "geometry.self_ms": (module_self["geometry"] * ms, "ms"),
        "functionals.self_ms": (module_self["functionals"] * ms, "ms"),
        "functionals.power_identity_gap_max": (traced["power_gap_max"], "ratio"),
        "group.fixed_cost.ms": (fixed * ms, "ms"),
        "group.node_data.ms": (node_data * ms, "ms"),
        "group.functionals.ms": (functionals * ms, "ms"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
    }
    for name in ("relative_power", "inner_relative_power", "integral_balance_residuals",
                 "invariance_decomposition", "noether_point_checks",
                 "surface_independence_check"):
        metrics[f"functionals.{name}.ms"] = (inclusive[f"functionals.{name}"] * ms, "ms")
    shares = {"fixed_cost": fixed / raw_wall, "node_data": node_data / raw_wall,
              "functionals": functionals / raw_wall}
    return {"metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            "group_shares": shares}


def median_layers(layers: List[dict]) -> dict:
    """Per metric and per group share, the median over traced passes."""
    first = layers[0]
    return {
        "metrics": {name: {"value": statistics.median(one["metrics"][name]["value"]
                                                      for one in layers),
                           "unit": metric["unit"]}
                    for name, metric in first["metrics"].items()},
        "group_shares": {name: statistics.median(one["group_shares"][name]
                                                 for one in layers)
                         for name in first["group_shares"]},
        "traced_passes": len(layers),
    }


def annotate_factors(result: dict, gauge: SpeedGauge) -> None:
    """Give every timed interval the machine-speed factor around it."""
    timed = []
    for one in result["passes"]:
        timed.append(one)
        timed.extend(one.get("scenarios", []))
    for item in timed:
        item["factor"] = gauge.factor(item["start"], item["end"])


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    gauge = SpeedGauge()
    passes = []
    result = {"passes": passes}
    started = time.perf_counter()
    if plan["trace"]:
        # pairs of an untraced and a traced pass; a fresh tracer each time,
        # so every count covers exactly one pass
        pairs = []
        while not pairs or time.perf_counter() - started < plan["seconds"]:
            untraced = in_process_pass(plan, len(passes), gauge)
            passes.append(untraced)
            tracer = Tracer()
            with tracer:
                traced = in_process_pass(plan, len(passes), gauge)
            passes.append(traced)
            pairs.append((tracer, traced, untraced))
        pairs[-1][0].dump(plan["trace_out"])
        annotate_factors(result, gauge)
        result["layers"] = median_layers([layer_metrics(tracer, traced, untraced, plan)
                                          for tracer, traced, untraced in pairs])
    else:
        result["setups"] = setup_probes(plan["config_paths"][0], plan["setup_probes"])
        timed_pass, kind = in_process_pass, "in_process"
        if plan["workload"] == "bundled_all":
            # per-scenario latencies from in-process passes; then the
            # command users run, repeated for its wall time
            for index in range(plan["min_passes"]):
                passes.append(in_process_pass(plan, index, gauge))
            timed_pass, kind = subprocess_pass, "subprocess"
        while (sum(one["kind"] == kind for one in passes) < plan["min_passes"]
               or time.perf_counter() - started < plan["seconds"]):
            passes.append(timed_pass(plan, len(passes), gauge))
        annotate_factors(result, gauge)
    result["calibration"] = gauge.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    # one core for the work, its subprocesses and the kernel that
    # calibrates them: on the reference box the two cores slow down
    # independently of each other
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main(sys.argv[1]))
