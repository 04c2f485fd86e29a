"""Batch front door: run scenario files, sweep discretization axes, list presets.

Every check of ``run`` and every row of ``sweep`` reads one scenario's shared
results, P_rel, P_inn and R1..R4, from one :func:`shared_results` call.  Exit
codes: 0 all enabled tolerances pass, 1 tolerance failure, 2 invalid
configuration or usage (a config path and ``--all`` together), or a det F <= 0
or non-finite value made from a valid one, 3 I/O error of the reports; output to
a closed stdout is dropped.  ``run`` writes and prints each scenario before it
builds the next.  Reports are CSV files plus a JSON manifest per scenario;
identical config and seed produce byte-identical outputs (fixed column order,
17-significant-digit floats, LF line endings), each written to a new,
exclusively opened hidden file, then renamed into place.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import warnings
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import configurational as conf
from . import fields, geometry, materials
from . import functionals as fn
from .exceptions import (ConfigInvalid, NonAffineDefect, NonFiniteValue,
                         NonPositiveJacobian, PreconditionViolated)
from .geometry import weighted_fsum
from .scenarios import (Scenario, build_motion, bundled_scenario_names,
                        config_digest, config_seed, load_bundled_config,
                        load_config_file, validate_config)

DEFAULT_OUTPUT_ENV = "RELPOWER_OUT"
DEFAULT_OUTPUT_DIR = "relpower_out"

QUAD_SWEEP_VALUES = (2, 4, 6, 8)
FD_SWEEP_VALUES = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _norm(vec) -> float:
    """|vec|, a made value: raises :class:`NonFiniteValue` if it overflows."""
    with np.errstate(over="ignore"):    # the squares may overflow, not the norm
        norm = float(np.linalg.norm(vec))
    if not math.isfinite(norm):
        norm = math.hypot(*np.ravel(vec))
        if not math.isfinite(norm):
            raise NonFiniteValue(f"norm is not finite for {vec}")
    return norm


def _print(text: str) -> None:
    """``text`` to stdout now; a closed reader drops it and every later line."""
    try:
        print(text, flush=True)
    except BrokenPipeError:    # later lines and the flush at exit go to the null device
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())


def _write_atomic(path: str, text: str) -> None:
    # mode "x" neither overwrites nor follows a file planted at the random name
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    stream = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with stream:
            stream.write(text)
        os.replace(tmp, path)
    except BaseException:
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


class Gate(NamedTuple):
    """One gated metric of a check."""

    check: str
    metric: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


def shared_results(scenario: Scenario):
    """(P_rel, P_inn, R1..R4) of the scenario's part, the results every check reads."""
    return (fn.relative_power(scenario), fn.inner_relative_power(scenario),
            fn.integral_balance_residuals(scenario))


class ScenarioRun:
    """Executes one scenario's enabled checks and collects its tables."""

    # the gated checks after the balances, in the order they run and report
    CHECKS = ("power_identity", "invariance", "standard_power", "eshelby_diagonal",
              "surface_independence", "noether")

    def __init__(self, config: dict):
        self.scenario = Scenario(config)
        self.gates: List[Gate] = []
        self.tables: Dict[str, Tuple[List[str], List[List]]] = {}
        self.manifest_extra: Dict[str, object] = {}

    # -- helpers -------------------------------------------------------------

    def _vector_row(self, vec: np.ndarray, *labels: str) -> List:
        return [self.scenario.name, *labels, *vec, _norm(vec)]

    def _gate(self, check, metric, error: float, tolerance: float, scale: float = 1.0) -> None:
        self.gates.append(Gate(check, metric, float(error / scale), float(tolerance)))

    # -- checks ----------------------------------------------------------------

    def run(self) -> None:
        checks = self.scenario.checks
        self._power, self._inner, self._residuals = shared_results(self.scenario)
        self._report_power()
        self._report_balances(checks.get("balances"))
        for name in self.CHECKS:
            if name in checks:
                getattr(self, f"_check_{name}")(checks[name])

    def _report_power(self) -> None:
        power, inner = self._power, self._inner
        pieces = [f.name for f in dataclasses.fields(power) if f.name != "total"]
        pieces += ["actions", "disarrangement", "total"]
        self.tables["power"] = (
            ["scenario", *pieces, "inner", "abs_difference"],
            [[self.scenario.name, *(getattr(power, piece) for piece in pieces), inner,
              abs(power.total - inner)]])

    def _report_balances(self, spec: Optional[dict]) -> None:
        scenario, residuals = self.scenario, self._residuals
        header = ["scenario", "row", "pivot", "comp_1", "comp_2", "comp_3", "norm"]
        rows = [self._vector_row(vec, label, "default")
                for label, vec in residuals._asdict().items()]

        force_norms = max(_norm(residuals.force), _norm(residuals.configurational_force))
        if spec and force_norms > spec["tolerance"]:
            # nonzero force residuals make torque residuals pivot dependent;
            # rerun with a shifted pivot so the dependence is visible
            shift = 0.25 * scenario.part.scale * np.ones(3)
            shifted = fn.integral_balance_residuals(
                scenario, x0=scenario.x0 + shift, y0=scenario.y0 + shift)
            rows.extend(self._vector_row(vec, label, "shifted")
                        for label, vec in shifted._asdict().items())
            self.manifest_extra["pivot_shift"] = [float(s) for s in shift]

        self.tables["balances"] = (header, rows)

        if spec and spec.get("expect", "zero") == "zero":
            worst = max(row[-1] for row in rows if row[2] == "default")
            self._gate("balances", "max_residual_norm", worst, spec["tolerance"])

    def _check_power_identity(self, spec: dict) -> None:
        total = self._power.total
        self._gate("power_identity", "normalized_abs_difference",
                   abs(total - self._inner), spec["tolerance"], 1.0 + abs(total))

    def _check_invariance(self, spec: dict) -> None:
        decomp = fn.invariance_decomposition(self.scenario, self._power)
        header = ["scenario", "generator", "coeff_1", "coeff_2", "coeff_3",
                  "coeff_norm", "predicted_1", "predicted_2", "predicted_3",
                  "prediction_error"]
        # the coefficient of each generator is its balance residual, R1..R4 in order
        rows = []
        for slot, p in zip(fn.GENERATOR_SLOTS, self._residuals):
            c = decomp.coefficients[slot]
            rows.append([self.scenario.name, slot, c[0], c[1], c[2],
                         _norm(c), p[0], p[1], p[2], _norm(c - p)])
        self.tables["invariance"] = (header, rows)

        self.manifest_extra["affine_residual"] = decomp.affine_residual
        self.manifest_extra["power_scale"] = self._power.scale

        column, metric = (("coeff_norm", "max_coefficient_norm")
                          if spec.get("expect", "zero") == "zero"
                          else ("prediction_error", "max_prediction_error"))
        worst = max(row[header.index(column)] for row in rows)
        self._gate("invariance", metric, worst, spec["tolerance"], self._power.scale)

    def _check_standard_power(self, spec: dict) -> None:
        # the pair (v, 0)
        rows = fn.pair_rows(self.scenario)
        total = fn.relative_power(
            self.scenario, rows[:2] + tuple(map(np.zeros_like, rows[2:]))).total
        reference = fn.standard_external_power(self.scenario)
        self._gate("standard_power", "relative_difference", abs(total - reference),
                   spec["tolerance"], max(1.0, abs(reference)))

    def _check_eshelby_diagonal(self, spec: dict) -> None:
        diag = np.diag(self.scenario.state(self.scenario.part.center).eshelby)
        error = np.max(np.abs(diag - spec["expected"]))
        self._gate("eshelby_diagonal", "max_abs_error", error, spec["tolerance"])
        self.tables["balances"][1].append(self._vector_row(diag, "eshelby_diagonal", "-"))

    def _check_surface_independence(self, spec: dict) -> None:
        # the fluxes of PP n through the shell's spheres, each along its own outward
        # normal, summed from R3's boundary rows; 0.0 - sum keeps an exact 0 unsigned
        surf, expect = self.scenario.surface_data, spec.get("expect", "zero")
        on_outer = np.einsum("in,in->n", surf.normals,
                             surf.points - self.scenario.part.center[:, None]) > 0.0
        inner = 0.0 - weighted_fsum(surf.config_traction[:, ~on_outer], surf.weights[~on_outer])
        outer = weighted_fsum(surf.config_traction[:, on_outer], surf.weights[on_outer])

        header = ["scenario", "row", "comp_1", "comp_2", "comp_3", "norm"]
        rows = [self._vector_row(inner, "flux_inner"),
                self._vector_row(outer, "flux_outer"),
                self._vector_row(outer - inner, "difference")]

        if expect == "zero":
            inner_norm, outer_norm, difference_norm = (row[-1] for row in rows)
            self._gate("surface_independence", "difference_vs_flux_scale", difference_norm,
                       spec["tolerance"], max(1.0, inner_norm, outer_norm))
        else:
            # grading breaks the hypotheses: outer - inner is then int_b de/dx|expl dx
            vol = self.scenario.volume_data
            expected = weighted_fsum(vol.material_gradient, vol.weights)
            rows.append(self._vector_row(expected, "expected_shell_integral"))
            self._gate("surface_independence", "difference_vs_shell_integral",
                       _norm(outer - inner - expected), spec["tolerance"],
                       max(1.0, rows[-1][-1]))
        self.tables["surface_independence"] = (header, rows)

    def _check_noether(self, spec: dict) -> None:
        report = fn.noether_point_checks(self.scenario)
        self.tables["noether"] = (["scenario", *report._fields],
                                  [[self.scenario.name, *report]])

        tol = spec["condition_tolerance"]
        self._gate("noether", "max_first_condition", report.max_first_condition, tol)
        if spec.get("expect_second", "zero") == "zero":
            self._gate("noether", "max_second_condition", report.max_second_condition,
                       tol)
        else:
            self._gate("noether", "max_second_condition_mismatch",
                       report.max_second_condition_mismatch,
                       spec.get("second_tolerance", tol))
        if "divergence_tolerance" in spec:
            self._gate("noether", "boundary_flux_gap", report.boundary_flux_gap,
                       spec["divergence_tolerance"])

    # -- outputs ---------------------------------------------------------------

    @property
    def passed(self) -> bool:
        return all(gate.passed for gate in self.gates)

    def manifest(self) -> dict:
        scenario = self.scenario
        manifest = {
            "name": scenario.name,
            "tool_version": __version__,
            "config_sha256": config_digest(scenario.config),
            "seed": scenario.seed,
            "derivative_mode": scenario.derivative_mode,
            "steps": {
                "motion": scenario.motion_step,
                "divergence": scenario.divergence_step,
            },
            "quadrature": scenario.config.get("quadrature", {}),
            "source_mode": scenario.source_mode,
            "tolerances": {f"{gate.check}:{gate.metric}": gate.tolerance
                           for gate in self.gates},
            "results": {f"{gate.check}:{gate.metric}": "pass" if gate.passed else "fail"
                        for gate in self.gates},
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
                   [[self.scenario.name, *gate, "pass" if gate.passed else "fail"]
                    for gate in self.gates])
        _write_atomic(os.path.join(directory, "manifest.json"),
                      json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _pointwise_divergence_error(scenario: Scenario) -> float:
    """Max gap between Div P from differenced F and analytic Div P at the volume nodes.

    Isolates discretization error of the derivative steps from quadrature
    error.  Both motions are built from the config, so the comparison holds
    whatever the scenario's derivative mode.
    """
    exact_motion = build_motion(scenario.config["motion"], scenario.motion_step)
    fd_motion = dataclasses.replace(exact_motion, gradient=None, second_gradient=None)
    points = scenario.volume_data.points
    approx, exact = (conf.stress_divergences(scenario.model, motion, points,
                                             scenario.divergence_step)[1]
                     for motion in (fd_motion, exact_motion))
    return float(np.max(np.linalg.norm(approx - exact, axis=0), initial=0.0))


def sweep_scenario(config: dict, axis: str, values: Optional[Sequence[float]] = None):
    """Re-run one scenario across a discretization axis.

    ``axis='quad'`` varies the volume, surface and radial Gauss orders, of
    which each part reads its own; ``axis='fd'`` switches to
    finite-difference derivatives and varies the divergence step (with the
    motion step kept a decade smaller).  Every row takes the seed of the
    unswept config, which fixes only the invariance decomposition's random
    changes, so a seedless config sweeps as its seeded twin.
    """
    if axis not in ("quad", "fd"):
        raise ConfigInvalid(f"unknown sweep axis {axis!r}")
    quad = axis == "quad"
    values = list(values or (QUAD_SWEEP_VALUES if quad else FD_SWEEP_VALUES))
    for value in values:
        if quad and not float(value).is_integer():
            raise ConfigInvalid(f"quadrature order must be an integer, got {value:g}")

    seed = config_seed(config)
    rows = []
    for value in values:
        cfg = copy.deepcopy(config)
        cfg["seed"] = seed
        if quad:
            order = int(value)
            cfg.setdefault("quadrature", {}).update(
                volume_order=order, surface_order=order, radial_order=order)
        else:
            cfg["derivatives"] = {
                "mode": "fd",
                "divergence_step": float(value),
                "motion_step": float(value) / 10.0,
            }
        scenario = Scenario(cfg)
        power, inner, residuals = shared_results(scenario)
        rows.append([cfg["name"], axis, float(value), abs(power.total - inner),
                     max(map(_norm, residuals)), _pointwise_divergence_error(scenario)])

    header = ["scenario", "axis", "value", "power_identity_error",
              "max_balance_residual", "pointwise_divergence_error"]
    return header, rows


# ---------------------------------------------------------------------------
# Preset listing
# ---------------------------------------------------------------------------

def preset_keys(constructor) -> List[str]:
    """The config keys of a preset: its constructor's positional parameters
    (a part's keyword-only ones are quadrature keys).  Slow: only listings call it."""
    return [p.name for p in inspect.signature(constructor).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD]


def preset_catalog() -> dict:
    """Every preset family, read from the tables config building uses."""
    tables = {"motions": fields.MOTIONS, "materials": materials.MODEL_CLASSES,
              "moduli": materials.MODULI, "virtual_fields": fields.FIELDS,
              "geometries": geometry.PARTS, "potentials": materials.POTENTIALS}
    catalog = {
        section: {name: {"params": preset_keys(constructor),
                         "doc": constructor.__doc__.splitlines()[0]}
                  for name, constructor in table.items()}
        for section, table in tables.items()
    }
    catalog["bundled_scenarios"] = bundled_scenario_names()
    return catalog


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _resolve_out_dir(arg: Optional[str]) -> str:
    return arg or os.environ.get(DEFAULT_OUTPUT_ENV) or DEFAULT_OUTPUT_DIR


def _load_configs(args) -> List[dict]:
    if (args.config is not None) == args.all:   # both given, or neither
        raise ConfigInvalid("provide either a config path or --all")
    if args.all:
        return [load_bundled_config(name) for name in bundled_scenario_names()]
    return [load_config_file(args.config)]


def cmd_run(args) -> int:
    out_dir = _resolve_out_dir(args.out)
    failed = []
    for config in _load_configs(args):
        run = ScenarioRun(config)
        run.run()
        run.write(out_dir)
        _print(f"{'PASS' if run.passed else 'FAIL'} {run.scenario.name}")
        if not run.passed:
            failed.append(run.scenario.name)
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
        _print(f"{row[1]}={row[2]:g}: power_identity_error={row[3]:.3e} "
               f"max_balance_residual={row[4]:.3e} "
               f"pointwise_divergence_error={row[5]:.3e}")
    return 0


def cmd_list_presets(args) -> int:
    catalog = preset_catalog()
    if args.json:
        _print(json.dumps(catalog, indent=2, sort_keys=True))
        return 0
    for section, entries in catalog.items():
        _print(section)
        if isinstance(entries, list):
            for name in entries:
                _print(f"  {name}")
            continue
        for name, info in entries.items():
            params = ", ".join(info["params"]) or "-"
            _print(f"  {name:<14} params: {params:<40} {info['doc']}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every call of :func:`main` shares it."""
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
    args = build_parser().parse_args(argv)
    code = None
    try:
        # warnings wait for the exit code: a run that exits 2 shows only its error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")    # each once per source line
            code = _run_command(args)
    finally:
        for warning in caught if code != 2 else ():
            warnings.warn_explicit(warning.message, warning.category,
                                   warning.filename, warning.lineno)
    return code


def _run_command(args) -> int:
    try:
        return args.func(args)
    except (ConfigInvalid, PreconditionViolated) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NonPositiveJacobian, NonFiniteValue) as err:
        # made from valid inputs: det F <= 0 where F is made, or an overflow
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3
    except NonAffineDefect as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
