"""relpower benchmark: one workload, end to end or traced layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {bundled_all,closure_refined,random_small}
                             --seed N --seconds S --trace {0,1}

The inputs are made from the seed, checked (schema, det F > 0) before
any timing, and handed to a fresh interpreter with PYTHONPATH=src that
runs them closed-loop, one scenario after another.  Human-readable
lines go first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bundled_all", "closure_refined", "random_small")
SETUP_PROBES = 11
MIN_PASSES = 2
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    # closed loop in one process: numpy's BLAS gets one thread, so the
    # workload uses at most two (this waiting parent and its child)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for entry in sorted(files):
            path = os.path.join(base, entry)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root: str, env: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the layout of numpy's build info varies by version
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas": blas,
        "threads": {name: env.get(name) for name in THREAD_VARIABLES},
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tally(result: dict, names: list, expect_all_pass: bool):
    """(attempted, failed, gate failures, problems) over every pass.

    A scenario execution fails when it raised, exited with a code other
    than 0 or 1, wrote inconsistent reports, or wrote reports that differ
    from the first execution of the same input.
    """
    attempted = failed = gate_failed = 0
    problems = []
    reference = {}

    def judge(name, code, digest, consistent, label):
        nonlocal attempted, failed, gate_failed
        attempted += 1
        reference.setdefault(name, digest)
        reason = None
        if code not in (0, 1):
            reason = f"exit code {code}"
        elif not consistent:
            reason = "reports disagree with each other or the exit code"
        elif digest is None or digest != reference[name]:
            reason = "reports differ between repetitions"
        if reason:
            failed += 1
            problems.append(f"{label} {name}: {reason}")
        elif code == 1:
            gate_failed += 1

    for index, one in enumerate(result["passes"]):
        label = f"pass {index} ({one['kind']})"
        run = one if one["kind"] == "subprocess" else one.get("all")
        if run is not None and expect_all_pass:
            passed = sum(1 for line in run["stdout"].splitlines() if line.startswith("PASS "))
            if run["code"] != 0 or passed != len(names):
                problems.append(f"{label}: run --all exited {run['code']} with {passed} "
                                f"PASS lines, expected 0 and {len(names)}")
        for name, record in zip(names, one.get("scenarios", [])):
            if record["error"]:
                problems.append(f"{label} {name}: {record['error']}")
        for name in names:
            judge(name, one["codes"].get(name), one["digests"].get(name),
                  one["consistent"].get(name, False), label)
    return attempted, failed, gate_failed, problems


def _seconds(item: dict) -> float:
    """An interval in reference seconds: measured, over its speed factor."""
    return _raw_seconds(item) / item["factor"]


def _raw_seconds(item: dict) -> float:
    if "raw_s" in item:
        return item["raw_s"]
    return item["end"] - item["start"] - item.get("paused_s", 0.0)


def end_to_end(result: dict, nodes: int):
    """(metrics, sample counts, raw seconds) from an untraced result."""
    passes = result["passes"]
    timed = [one for one in passes if one["kind"] == "subprocess"]
    if timed:
        rss = max(one["peak_rss_mb"] for one in timed)
    else:
        timed = passes
        rss = result["peak_rss_mb"]
    walls = [_seconds(one) for one in timed]
    records = [rec for one in passes for rec in one.get("scenarios", [])]
    latencies = [_seconds(rec) * 1e3 for rec in records]
    setups = [_seconds(probe) for probe in result["setups"]]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "scenario_p50_ms": (statistics.median(latencies), "ms"),
        "scenario_p95_ms": (percentile(latencies, 95), "ms"),
        "nodes_per_s": (nodes / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    samples = {"setup_s": len(setups), "wall_s": len(walls),
               "scenario_p50_ms": len(latencies), "scenario_p95_ms": len(latencies),
               "nodes_per_s": len(walls), "peak_rss_mb": 1}
    raw = {"setup_s": [p["raw_s"] for p in result["setups"]],
           "wall_s": [_raw_seconds(one) for one in timed],
           "speed_factor": [one["factor"] for one in timed],
           "scenario_ms": latencies}
    return metrics, samples, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "relpower", "__init__.py")):
        print("error: run from the root of a relpower checkout (no src/relpower here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import generate

    configs = generate.workload_configs(args.workload, args.seed, root)
    nodes = generate.check_draws(configs, root)
    names = [config["name"] for config in configs]

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    work_root = os.path.join(HERE, ".work")
    work_dir = os.path.join(work_root, f"{tag}-{os.getpid()}")
    inputs = os.path.join(work_dir, "inputs")
    os.makedirs(inputs)
    config_paths = []
    for config in configs:
        path = os.path.join(inputs, f"{config['name']}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=1)
        config_paths.append(path)

    env = child_env()
    log_path = os.path.join(work_root, f"{tag}.log")
    plan = {
        "workload": args.workload, "seconds": args.seconds, "min_passes": MIN_PASSES,
        "trace": bool(args.trace), "setup_probes": SETUP_PROBES,
        "config_paths": config_paths, "names": names,
        "work_dir": work_dir, "result": os.path.join(work_dir, "result.json"),
        "trace_out": os.path.join(work_root, f"trace-{args.workload}-{args.seed}.json"),
    }
    plan_path = os.path.join(work_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)

    try:
        with open(log_path, "w", encoding="utf-8") as log:
            # its own process group, so a timeout also ends what it started
            child = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                                      plan_path], env=env, stdout=log,
                                     stderr=subprocess.STDOUT, start_new_session=True)
            try:
                child.wait(timeout=TIME_LIMIT_S - (time.perf_counter() - started))
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                print(f"error: workload exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
                return 1
        if child.returncode != 0:
            print(f"error: workload process exited {child.returncode}; see {log_path}",
                  file=sys.stderr)
            return 1
        with open(plan["result"], encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed, gate_failed, problems = tally(
        result, names, expect_all_pass=args.workload == "bundled_all")
    passes = len(result["passes"])
    correct = not problems and failed == 0 and passes >= MIN_PASSES
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": passes, "scenarios": len(names),
              "nodes": sum(nodes), "environment": environment(root, env)}

    if args.trace:
        layers = result["layers"]
        metrics = layers["metrics"]
        record["group_shares"] = layers["group_shares"]
        for group, share in sorted(layers["group_shares"].items()):
            print(f"group {group}: {share:.1%} of the traced pass")
    else:
        values, samples, record["raw"] = end_to_end(result, sum(nodes))
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
        record["samples"] = samples
    record.update(correct=correct, attempted=attempted, failed=failed,
                  gate_failed=gate_failed, problems=problems, metrics=metrics)
    with open(os.path.join(work_root, f"result-{tag}.json"), "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)

    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(f"{args.workload}: {len(names)} scenarios, {sum(nodes)} quadrature nodes, "
          f"{passes} passes")
    for name, metric in metrics.items():
        count = record.get("samples", {}).get(name)
        suffix = f" (n={count})" if count else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{suffix}")
    if "raw" in record:
        raw = record["raw"]
        print(f"measured, before speed normalization: setup_s median "
              f"{statistics.median(raw['setup_s']):.6g} s, wall_s median "
              f"{statistics.median(raw['wall_s']):.6g} s, speed factor median "
              f"{statistics.median(raw['speed_factor']):.4g}")
    print(f"failed_share = {failed / attempted:.4g} ({failed}/{attempted})")
    print(f"gate_fail_share = {gate_failed / attempted:.4g} ({gate_failed}/{attempted})")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
