"""Batch front door: run scenario files, sweep discretization axes, list presets.

Exit codes: 0 all enabled tolerances pass, 1 tolerance failure,
2 invalid configuration or usage, 3 I/O error.  Reports are CSV files
plus a JSON manifest per scenario; identical config and seed produce
byte-identical outputs (fixed column order, 17-significant-digit
floats, LF line endings, atomic writes).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import configurational as conf
from . import functionals as fn
from .exceptions import (ConfigInvalid, NonAffineDefect, PreconditionViolated,
                         RelpowerError)
from .fields import VirtualFieldPair, constant_field
from .geometry import sphere_surface
from .scenarios import (Scenario, build_motion, bundled_scenario_names,
                        config_digest, load_bundled_config, load_config_file,
                        validate_config)

DEFAULT_OUTPUT_ENV = "RELPOWER_OUT"
DEFAULT_OUTPUT_DIR = "relpower_out"

QUAD_SWEEP_VALUES = (2, 4, 6, 8)
FD_SWEEP_VALUES = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    handle, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="\n") as stream:
            stream.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [
            _fmt(cell) if isinstance(cell, (int, float)) and not isinstance(cell, bool)
            else str(cell)
            for cell in row
        ]
        lines.append(",".join(cells))
    _write_atomic(path, "\n".join(lines) + "\n")


class CheckOutcome:
    def __init__(self, check: str, metric: str, value: float, tolerance: float):
        self.check = check
        self.metric = metric
        self.value = float(value)
        self.tolerance = float(tolerance)
        self.passed = self.value <= self.tolerance

    def row(self, scenario: str) -> List:
        return [scenario, self.check, self.metric, self.value, self.tolerance,
                "pass" if self.passed else "fail"]


class ScenarioRun:
    """Executes one scenario's enabled checks and collects its tables."""

    def __init__(self, config: dict):
        self.config = config
        self.scenario = Scenario(config)
        self.outcomes: List[CheckOutcome] = []
        self.tables: Dict[str, Tuple[List[str], List[List]]] = {}
        self.manifest_extra: Dict[str, object] = {}

    # -- helpers -------------------------------------------------------------

    def _vector_row(self, label: str, pivot_label: str, vec: np.ndarray) -> List:
        return [self.scenario.name, label, pivot_label,
                vec[0], vec[1], vec[2], float(np.linalg.norm(vec))]

    def _add(self, outcome: CheckOutcome) -> None:
        self.outcomes.append(outcome)

    # -- checks ----------------------------------------------------------------

    def run(self) -> None:
        checks = self.scenario.checks
        self._report_power()
        self._report_balances(checks.get("balances"))
        if "power_identity" in checks:
            self._check_power_identity(checks["power_identity"])
        if "invariance" in checks:
            self._check_invariance(checks["invariance"])
        if "standard_power" in checks:
            self._check_standard_power(checks["standard_power"])
        if "eshelby_diagonal" in checks:
            self._check_eshelby_diagonal(checks["eshelby_diagonal"])
        if "surface_independence" in checks:
            self._check_surface_independence(checks["surface_independence"])
        if "noether" in checks:
            self._check_noether(checks["noether"])

    def _report_power(self) -> None:
        power = fn.relative_power(self.scenario)
        inner = fn.inner_relative_power(self.scenario)
        header = ["scenario", "actions_volume", "actions_surface", "energy_flux",
                  "inhomogeneity", "couple", "actions", "disarrangement", "total",
                  "inner", "abs_difference"]
        row = [self.scenario.name, power.actions_volume, power.actions_surface,
               power.energy_flux, power.inhomogeneity, power.couple,
               power.actions, power.disarrangement, power.total, inner,
               abs(power.total - inner)]
        self.tables["power"] = (header, [row])
        self._power = power
        self._inner = inner

    def _report_balances(self, spec: Optional[dict]) -> None:
        scenario = self.scenario
        residuals = fn.integral_balance_residuals(scenario)
        header = ["scenario", "row", "pivot", "comp_1", "comp_2", "comp_3", "norm"]
        rows = [
            self._vector_row(label, "default", vec)
            for label, vec in residuals.as_dict().items()
        ]

        tolerance = spec["tolerance"] if spec else None
        force_norms = max(float(np.linalg.norm(residuals.force)),
                          float(np.linalg.norm(residuals.configurational_force)))
        shift = None
        if spec and "pivot_shift" in spec:
            shift = np.asarray(spec["pivot_shift"], float)
        elif tolerance is not None and force_norms > tolerance:
            # nonzero force residuals make torque residuals pivot dependent;
            # rerun with a shifted pivot so the dependence is visible
            shift = 0.25 * scenario.part.scale * np.ones(3)
        if shift is not None:
            shifted = fn.integral_balance_residuals(
                scenario, x0=scenario.x0 + shift, y0=scenario.y0 + shift)
            rows.extend(
                self._vector_row(label, "shifted", vec)
                for label, vec in shifted.as_dict().items()
            )
            self.manifest_extra["pivot_shift"] = [float(s) for s in shift]

        self.tables["balances"] = (header, rows)

        if spec and spec.get("expect", "zero") == "zero":
            worst = max(float(np.linalg.norm(v)) for v in residuals.as_dict().values())
            self._add(CheckOutcome("balances", "max_residual_norm", worst,
                                   spec["tolerance"]))

    def _check_power_identity(self, spec: dict) -> None:
        # bound: tolerance * (1 + |P_rel|)
        error = abs(self._power.total - self._inner) / (1.0 + abs(self._power.total))
        self._add(CheckOutcome("power_identity", "normalized_abs_difference",
                               error, spec["tolerance"]))

    def _check_invariance(self, spec: dict) -> None:
        decomp = fn.invariance_decomposition(
            self.scenario, affine_tolerance=spec.get("affine_tolerance", 1e-10))
        header = ["scenario", "generator", "coeff_1", "coeff_2", "coeff_3",
                  "coeff_norm", "predicted_1", "predicted_2", "predicted_3",
                  "prediction_error"]
        rows = []
        for slot in fn.GENERATOR_SLOTS:
            c = decomp.coefficients[slot]
            p = decomp.predicted[slot]
            rows.append([self.scenario.name, slot, c[0], c[1], c[2],
                         float(np.linalg.norm(c)), p[0], p[1], p[2],
                         float(np.linalg.norm(c - p))])
        self.tables["invariance"] = (header, rows)

        config_torque = decomp.predicted["material_rotation"] - decomp.mismatch
        factors = {
            "material_translation": fn.grouping_factor(
                decomp.coefficients["material_translation"],
                decomp.predicted["material_translation"]),
            "material_rotation": fn.grouping_factor(
                decomp.coefficients["material_rotation"], config_torque),
        }
        self.manifest_extra["grouping_factors"] = factors
        self.manifest_extra["torque_mismatch"] = [float(m) for m in decomp.mismatch]
        self.manifest_extra["affine_residual"] = decomp.affine_residual
        self.manifest_extra["power_scale"] = decomp.power_scale

        if spec.get("expect", "zero") == "zero":
            worst = max(decomp.coefficient_norms().values())
            self._add(CheckOutcome("invariance", "max_coefficient_norm",
                                   worst / decomp.power_scale, spec["tolerance"]))
        else:
            worst = max(decomp.prediction_errors().values())
            self._add(CheckOutcome("invariance", "max_prediction_error",
                                   worst / decomp.power_scale, spec["tolerance"]))

    def _check_standard_power(self, spec: dict) -> None:
        scenario = self.scenario
        pair = VirtualFieldPair(v=scenario.pair.v, w=constant_field(np.zeros(3), "w0"))
        total = fn.relative_power(scenario, pair).total
        reference = fn.standard_external_power(scenario, pair)
        error = abs(total - reference) / max(1.0, abs(reference))
        self._add(CheckOutcome("standard_power", "relative_difference", error,
                               spec["tolerance"]))

    def _check_eshelby_diagonal(self, spec: dict) -> None:
        diag = np.diag(self.scenario.eshelby_at(self.scenario.part.center))
        expected = np.asarray(spec["expected"], float)
        error = float(np.max(np.abs(diag - expected)))
        self._add(CheckOutcome("eshelby_diagonal", "max_abs_error", error,
                               spec["tolerance"]))
        header, rows = self.tables["balances"]
        rows.append(self._vector_row("eshelby_diagonal", "-", diag))

    def _check_surface_independence(self, spec: dict) -> None:
        scenario = self.scenario
        angular = spec.get("angular_points", 26)
        inner = sphere_surface(scenario.part.center, spec["inner_radius"], angular)
        outer = sphere_surface(scenario.part.center, spec["outer_radius"], angular)
        expect = spec.get("expect", "zero")
        result = fn.surface_independence_check(
            scenario, inner, outer,
            allow_broken_hypotheses=(expect != "zero"))

        header = ["scenario", "row", "comp_1", "comp_2", "comp_3", "norm"]
        rows = [
            [scenario.name, "flux_inner", *result.flux_inner,
             float(np.linalg.norm(result.flux_inner))],
            [scenario.name, "flux_outer", *result.flux_outer,
             float(np.linalg.norm(result.flux_outer))],
            [scenario.name, "difference", *result.difference, result.difference_norm],
        ]

        if expect == "zero":
            metric = result.difference_norm / result.flux_scale
            self._add(CheckOutcome("surface_independence", "difference_vs_flux_scale",
                                   metric, spec["tolerance"]))
        else:
            expected = fn.material_gradient_integral(scenario)
            rows.append([scenario.name, "expected_shell_integral", *expected,
                         float(np.linalg.norm(expected))])
            error = float(np.linalg.norm(result.difference - expected))
            metric = error / max(1.0, float(np.linalg.norm(expected)))
            self._add(CheckOutcome("surface_independence",
                                   "difference_vs_shell_integral", metric,
                                   spec["tolerance"]))
        self.tables["surface_independence"] = (header, rows)

    def _check_noether(self, spec: dict) -> None:
        report = fn.noether_point_checks(self.scenario,
                                         n_points=spec.get("points", 100))
        header = ["scenario", "points", "max_first_condition",
                  "max_second_condition", "max_flux_divergence",
                  "max_second_condition_mismatch"]
        self.tables["noether"] = (header, [[
            self.scenario.name, spec.get("points", 100),
            report.max_first_condition, report.max_second_condition,
            report.max_flux_divergence, report.max_second_condition_mismatch,
        ]])

        tol = spec["condition_tolerance"]
        self._add(CheckOutcome("noether", "max_first_condition",
                               report.max_first_condition, tol))
        if spec.get("expect_second", "zero") == "zero":
            self._add(CheckOutcome("noether", "max_second_condition",
                                   report.max_second_condition, tol))
        else:
            self._add(CheckOutcome("noether", "max_second_condition_mismatch",
                                   report.max_second_condition_mismatch,
                                   spec.get("second_tolerance", tol)))
        if "divergence_tolerance" in spec:
            self._add(CheckOutcome("noether", "max_flux_divergence",
                                   report.max_flux_divergence,
                                   spec["divergence_tolerance"]))

    # -- outputs ---------------------------------------------------------------

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def manifest(self) -> dict:
        scenario = self.scenario
        manifest = {
            "name": scenario.name,
            "tool_version": __version__,
            "config_sha256": config_digest(self.config),
            "seed": scenario.seed,
            "derivative_mode": scenario.derivative_mode,
            "steps": {
                "motion": scenario.motion_step,
                "divergence": scenario.divergence_step,
            },
            "quadrature": self.config.get("quadrature", {}),
            "source_mode": scenario.source_mode,
            "tolerances": {
                outcome.check + ":" + outcome.metric: outcome.tolerance
                for outcome in self.outcomes
            },
            "results": {
                outcome.check + ":" + outcome.metric:
                    "pass" if outcome.passed else "fail"
                for outcome in self.outcomes
            },
            "passed": self.passed,
        }
        manifest.update(self.manifest_extra)
        return manifest

    def write(self, out_dir: str) -> None:
        directory = os.path.join(out_dir, self.scenario.name)
        os.makedirs(directory, exist_ok=True)
        for table_name in sorted(self.tables):
            header, rows = self.tables[table_name]
            _write_csv(os.path.join(directory, f"{table_name}.csv"), header, rows)
        header = ["scenario", "check", "metric", "value", "tolerance", "status"]
        _write_csv(os.path.join(directory, "checks.csv"), header,
                   [outcome.row(self.scenario.name) for outcome in self.outcomes])
        _write_atomic(os.path.join(directory, "manifest.json"),
                      json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _pointwise_divergence_error(scenario: Scenario, samples: int = 16) -> float:
    """Max gap between finite-difference and analytic Div P at interior points.

    Isolates discretization error of the derivative steps from quadrature
    error.  Both motions are built from the config, so the comparison holds
    whatever the scenario's derivative mode.
    """
    exact_motion = build_motion(scenario.config["motion"], step=scenario.motion_step)
    fd_motion = dataclasses.replace(exact_motion, gradient=None, second_gradient=None)
    rng = np.random.default_rng(scenario.seed + 2)
    points = scenario.part.sample_interior(rng, samples)
    exact = conf.div_first_pk(scenario.model, exact_motion, points)
    approx = conf.div_first_pk(scenario.model, fd_motion, points,
                               step=scenario.divergence_step)
    return float(np.max(np.linalg.norm(approx - exact, axis=-1), initial=0.0))


def sweep_scenario(config: dict, axis: str, values: Optional[Sequence[float]] = None):
    """Re-run one scenario across a discretization axis.

    ``axis='quad'`` varies the volume/surface Gauss order; ``axis='fd'``
    switches to finite-difference derivatives and varies the divergence
    step (with the motion step kept a decade smaller).
    """
    rows = []
    if axis == "quad":
        values = list(values or QUAD_SWEEP_VALUES)
        for value in values:
            if value != int(value):
                raise ConfigInvalid(
                    f"quadrature order must be an integer, got {value:g}")
    elif axis == "fd":
        values = list(values or FD_SWEEP_VALUES)
    else:
        raise ConfigInvalid(f"unknown sweep axis {axis!r}")

    for value in values:
        cfg = copy.deepcopy(config)
        if axis == "quad":
            quad = cfg.setdefault("quadrature", {})
            quad["volume_order"] = int(value)
            quad["surface_order"] = int(value)
        else:
            cfg["derivatives"] = {
                "mode": "fd",
                "divergence_step": float(value),
                "motion_step": float(value) / 10.0,
            }
        scenario = Scenario(cfg)
        power = fn.relative_power(scenario)
        inner = fn.inner_relative_power(scenario)
        residuals = fn.integral_balance_residuals(scenario)
        worst = max(float(np.linalg.norm(v)) for v in residuals.as_dict().values())
        rows.append([cfg["name"], axis, float(value), abs(power.total - inner),
                     worst, _pointwise_divergence_error(scenario)])

    header = ["scenario", "axis", "value", "power_identity_error",
              "max_balance_residual", "pointwise_divergence_error"]
    return header, rows


# ---------------------------------------------------------------------------
# Preset listing
# ---------------------------------------------------------------------------

def preset_catalog() -> dict:
    return {
        "motions": {
            "identity": {"params": [], "doc": "y = x"},
            "homogeneous": {"params": ["matrix"], "doc": "y = F0 x"},
            "rotation": {"params": ["axis", "angle"], "doc": "rigid rotation y = R x"},
            "shear": {"params": ["gamma"], "doc": "y = x + gamma x_2 e_1"},
            "harmonic": {"params": ["alpha"],
                         "doc": "y = x + alpha (x1^2 - x2^2, -2 x1 x2, 0)"},
            "sinusoidal": {"params": ["amplitude", "wavevector", "direction"],
                           "doc": "y = x + a sin(k.x) d"},
        },
        "materials": {
            "stvk": {"params": ["lam", "mu"],
                     "doc": "Saint Venant-Kirchhoff: lam/2 (tr E)^2 + mu tr(E^2)"},
            "neo_hookean": {"params": ["lam", "mu"],
                            "doc": "mu/2 (tr C - 3) - mu ln J + lam/2 (ln J)^2"},
            "quadratic": {"params": ["mu"],
                          "doc": "mu/2 |F - I|^2 (not frame indifferent)"},
        },
        "moduli": {
            "constant": {"params": ["value"], "doc": "uniform modulus"},
            "affine": {"params": ["value", "slope"], "doc": "value + slope . x"},
            "sinusoidal": {"params": ["value", "amplitude", "wavevector"],
                           "doc": "value + amplitude sin(k . x)"},
        },
        "virtual_fields": {
            "constant": {"params": ["value"], "doc": "uniform field"},
            "rigid": {"params": ["translation", "rotation", "pivot"],
                      "doc": "c + q x (x - x0)"},
            "linear": {"params": ["matrix"], "doc": "A x"},
            "affine": {"params": ["value", "matrix", "pivot"],
                       "doc": "value + A (x - pivot)"},
            "sinusoidal": {"params": ["amplitude", "wavevector", "direction"],
                           "doc": "a sin(k.x) d; curl-free iff d || k"},
        },
        "geometries": {
            "box": {"params": ["center", "halfwidths"],
                    "doc": "axis-aligned box, Gauss-Legendre product rule"},
            "ball": {"params": ["center", "radius"],
                     "doc": "ball, radial Gauss x spherical rule"},
            "shell": {"params": ["center", "inner_radius", "outer_radius"],
                      "doc": "spherical shell, boundary = both spheres"},
        },
        "bundled_scenarios": bundled_scenario_names(),
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _resolve_out_dir(arg: Optional[str]) -> str:
    return arg or os.environ.get(DEFAULT_OUTPUT_ENV) or DEFAULT_OUTPUT_DIR


def _load_configs(args) -> List[dict]:
    if args.all:
        return [load_bundled_config(name) for name in bundled_scenario_names()]
    if args.config is None:
        raise ConfigInvalid("provide a config path or --all")
    return [load_config_file(args.config)]


def cmd_run(args) -> int:
    configs = _load_configs(args)
    out_dir = _resolve_out_dir(args.out)
    runs = []
    for config in configs:
        run = ScenarioRun(config)
        run.run()
        runs.append(run)
    for run in runs:
        run.write(out_dir)
    failed = [run.scenario.name for run in runs if not run.passed]
    for run in runs:
        status = "PASS" if run.passed else "FAIL"
        print(f"{status} {run.scenario.name}")
    if failed:
        print(f"{len(failed)} scenario(s) failed tolerances: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    config = load_config_file(args.config)
    validate_config(config)
    header, rows = sweep_scenario(config, args.axis, args.values)
    out_dir = _resolve_out_dir(args.out)
    directory = os.path.join(out_dir, config["name"])
    os.makedirs(directory, exist_ok=True)
    _write_csv(os.path.join(directory, "convergence.csv"), header, rows)
    for row in rows:
        print(f"{row[1]}={row[2]:g}: power_identity_error={row[3]:.3e} "
              f"max_balance_residual={row[4]:.3e} "
              f"pointwise_divergence_error={row[5]:.3e}")
    return 0


def cmd_list_presets(args) -> int:
    catalog = preset_catalog()
    if args.json:
        print(json.dumps(catalog, indent=2, sort_keys=True))
        return 0
    for section, entries in catalog.items():
        print(section)
        if isinstance(entries, list):
            for name in entries:
                print(f"  {name}")
            continue
        for name, info in entries.items():
            params = ", ".join(info["params"]) or "-"
            print(f"  {name:<14} params: {params:<40} {info['doc']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relpower",
        description="Numerical verification toolkit for configurational "
                    "balance laws derived from relative-power invariance.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run scenario checks and write reports")
    run.add_argument("config", nargs="?", help="path to a scenario JSON file")
    run.add_argument("--all", action="store_true",
                     help="run every bundled scenario")
    run.add_argument("--out", help="output directory (default $RELPOWER_OUT "
                                   f"or ./{DEFAULT_OUTPUT_DIR})")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="sweep a discretization axis")
    sweep.add_argument("config", help="path to a scenario JSON file")
    sweep.add_argument("--axis", choices=("quad", "fd"), required=True)
    sweep.add_argument("--values", nargs="+", type=float, help="override sweep values")
    sweep.add_argument("--out", help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    lp = sub.add_parser("list-presets", help="list motions, materials and fields")
    lp.add_argument("--json", action="store_true", help="machine-readable listing")
    lp.set_defaults(func=cmd_list_presets)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigInvalid, PreconditionViolated) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3
    except NonAffineDefect as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return 1
    except RelpowerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
