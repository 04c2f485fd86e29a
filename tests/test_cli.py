import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from relpower import cli
from relpower.scenarios import Scenario, config_seed, load_bundled_config


def run_cli(args):
    """``relpower args`` in this process, with its exit code and captured output.

    An exception that ``cli.main`` lets escape fails the calling test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exit_:  # argparse usage errors
            code = exit_.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# y = x + 1e200 sin(x_1) e_1: F is finite, and E = (F^t F - I)/2 overflows
OVERFLOWING_MOTION = {"preset": "sinusoidal", "amplitude": 1e200,
                      "wavevector": [1.0, 0.0, 0.0], "direction": [1.0, 0.0, 0.0]}
# a finite body force at the edge of the float range, whose integrals overflow
HUGE_BODY_FORCE = {"mode": "preset", "b": {"preset": "constant", "value": [1e308] * 3}}
HUGE_NEGATIVE_X = {"preset": "constant", "value": [-1e308, 0.0, 0.0]}


@pytest.fixture
def uniaxial(tmp_path):
    return write_config(tmp_path, load_bundled_config("stvk_uniaxial"))


class TestRun:
    def test_single_scenario_passes(self, tmp_path, uniaxial):
        out = tmp_path / "out"
        result = run_cli(["run", uniaxial, "--out", str(out)])
        assert result.returncode == 0, result.stderr
        assert "PASS stvk_uniaxial" in result.stdout
        rows = read_csv(out / "stvk_uniaxial" / "balances.csv")
        eshelby = [r for r in rows if r["row"] == "eshelby_diagonal"]
        assert len(eshelby) == 1
        diag = [float(eshelby[0][f"comp_{i}"]) for i in (1, 2, 3)]
        assert diag == pytest.approx([-0.8778, -0.1474, -0.1474], abs=1e-9)

    def test_outputs_are_byte_identical(self, tmp_path, uniaxial):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", uniaxial, "--out", str(out1)]).returncode == 0
        assert run_cli(["run", uniaxial, "--out", str(out2)]).returncode == 0
        names = sorted(os.listdir(out1 / "stvk_uniaxial"))
        assert names == sorted(os.listdir(out2 / "stvk_uniaxial"))
        for name in names:
            a = (out1 / "stvk_uniaxial" / name).read_bytes()
            b = (out2 / "stvk_uniaxial" / name).read_bytes()
            assert a == b, f"{name} differs between runs"

    def test_unknown_key_rejected_without_output(self, tmp_path):
        config = load_bundled_config("stvk_uniaxial")
        config["unexpected_key"] = 1
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = run_cli(["run", path, "--out", str(out)])
        assert result.returncode == 2
        assert not out.exists()

    def test_non_positive_jacobian_rejected(self, tmp_path):
        config = load_bundled_config("stvk_uniaxial")
        config["motion"] = {"preset": "homogeneous",
                            "matrix": [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                       [0.0, 0.0, 1.0]]}
        del config["checks"]["eshelby_diagonal"]
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = run_cli(["run", path, "--out", str(out)])
        assert result.returncode == 2
        assert "NonPositiveJacobian" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("base,section,value", [
        ("stvk_uniaxial", "geometry", {"kind": "box", "center": [float("nan"), 0.0, 0.0],
                                       "halfwidths": [0.5, 0.5, 0.5]}),
        ("stvk_uniaxial", "geometry", {"kind": "box", "center": [0.0, 0.0, 0.0],
                                       "halfwidths": [0.0, 0.0, 0.0]}),
        ("stvk_uniaxial", "motion",
         {"preset": "rotation", "axis": [0.0, 0.0, 0.0], "angle": 0.5}),
        # the fluxes are read on a shell's own spheres, and a box has none
        ("stvk_uniaxial", "checks", {"surface_independence": {
            "inner_radius": 0.9, "outer_radius": 0.9, "tolerance": 1e-6}}),
        # mu = (x1 - x2) e_1 vanishes at the centre and on the line x1 = x2 = 0
        ("stvk_uniaxial", "sources", {"mode": "preset", "mu": {
            "preset": "linear",
            "matrix": [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}}),
        # Draft 7 counts integral floats as integers
        ("stvk_uniaxial", "quadrature", {"volume_order": 4.0}),
        ("stvk_uniaxial", "seed", 41007.0),
        ("stvk_uniaxial", "checks",
         {"noether": {"points": 100.0, "condition_tolerance": 1e-6}}),
        ("stvk_uniaxial", "checks",
         {"noether": {"points": 10001, "condition_tolerance": 1e-6}}),
        # the check's radii and rule may only restate the part's (0.5, 0.9, 26)
        ("surface_independence_quadratic", "checks", {"surface_independence": {
            "inner_radius": 0.5, "outer_radius": 6.0, "tolerance": 1e-6}}),
        ("surface_independence_quadratic", "checks", {"surface_independence": {
            "inner_radius": 0.4, "tolerance": 1e-6}}),
        ("surface_independence_quadratic", "checks", {"surface_independence": {
            "angular_points": 14, "tolerance": 1e-6}}),
        # a ball is bounded by one sphere only
        ("surface_independence_quadratic", "geometry", {
            "kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 0.9}),
        # keys that no longer exist: the pivot shift is automatic, and the
        # affine superposition bound is fixed
        ("preset_nonequilibrium", "checks", {"balances": {
            "tolerance": 1e-6, "pivot_shift": [0.1, 0.0, 0.0]}}),
        ("closure_shear_neohookean", "checks", {"invariance": {
            "tolerance": 1e-8, "affine_tolerance": 1e-6}}),
        # int de/dx over the part is the flux difference across the part's
        # own boundary only, not across spheres inside it or around a box
        ("surface_independence_graded_control", "checks", {"surface_independence": {
            "inner_radius": 0.6, "outer_radius": 0.8,
            "expect": "material_gradient_integral", "tolerance": 1e-5}}),
        ("stvk_uniaxial", "checks", {"surface_independence": {
            "inner_radius": 0.1, "outer_radius": 0.3,
            "expect": "material_gradient_integral", "tolerance": 1e-5}}),
    ], ids=["nan_center", "zero_halfwidths", "zero_rotation_axis",
            "equal_surface_independence_radii", "isotropic_preset_couple_off_center",
            "float_order", "float_seed", "float_points", "too_many_points",
            "check_outer_radius_not_the_part", "check_inner_radius_not_the_part",
            "check_rule_not_the_part", "check_on_a_ball", "removed_pivot_shift",
            "removed_affine_tolerance", "control_spheres_inside_the_shell",
            "control_on_a_box"])
    def test_degenerate_config_rejected_without_traceback(self, tmp_path, base, section,
                                                          value):
        config = load_bundled_config(base)
        config[section] = value
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = run_cli(["run", path, "--out", str(out)])
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    # finite config numbers whose values overflow where they are made; the
    # error line is all a run that exits 2 prints, numpy warnings included
    @pytest.mark.parametrize("edits,quantity", [
        ({"geometry.halfwidths": [1.0, 1.0, 1.0],
          "virtual_fields.v": {"preset": "linear", "matrix": [
              [1e308, 1e308, 1e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}},
         "virtual_field"),
        ({"motion": OVERFLOWING_MOTION}, "stress"),
        ({"motion": OVERFLOWING_MOTION, "sources": {"mode": "preset"},
          "checks": {"balances": {"tolerance": 1e-12},
                     "standard_power": {"tolerance": 1e-12}}}, "stress"),
        # F and P are finite, dF/dx is 1e300 and b = -Div P overflows
        ({"motion": {"preset": "sinusoidal", "amplitude": 1e-300,
                     "wavevector": [1e300, 0.0, 0.0], "direction": [0.0, 1.0, 0.0]},
          "material.mu": {"kind": "constant", "value": 1e10}}, "body_force"),
        # the sum of the weighted terms overflows
        ({"geometry.halfwidths": [1.0, 1.0, 1.0],
          "sources": {"mode": "preset", "b": {"preset": "constant",
                                              "value": [1e308, 0.0, 0.0]}},
          "checks": {"balances": {"tolerance": 1e-9}}}, "integral"),
        # b . v overflows to +inf and -inf at different nodes
        ({"sources": HUGE_BODY_FORCE,
          "virtual_fields.v": {"preset": "sinusoidal", "amplitude": 10.0,
                               "wavevector": [3.0, 0.0, 0.0],
                               "direction": [1.0, 1.0, 1.0]},
          "virtual_fields.w": {"preset": "constant", "value": [0.0, 0.0, 0.0]},
          "checks": {"standard_power": {"tolerance": 1e-9}}}, "integral"),
        # b . v overflows to +inf at every node
        ({"sources": HUGE_BODY_FORCE,
          "virtual_fields.v": {"preset": "constant", "value": [10.0, 10.0, 10.0]},
          "virtual_fields.w": {"preset": "constant", "value": [0.0, 0.0, 0.0]},
          "checks": {"standard_power": {"tolerance": 1e-9}}}, "integral"),
        # two finite integrals of R3 whose sum overflows
        ({"sources": {"mode": "preset", "b": HUGE_NEGATIVE_X, "f": HUGE_NEGATIVE_X},
          "checks": {"balances": {"tolerance": 1e-12}}}, "integral"),
        # R1 = (-1e308, 0, 0) is finite, and its norm overflows
        ({"sources": {"mode": "preset", "b": HUGE_NEGATIVE_X},
          "checks": {"balances": {"tolerance": 1e-12}}}, "norm"),
    ], ids=["linear_v", "closure_sources", "preset_sources", "closure_divergence",
            "overflowing_sum", "opposite_infinite_terms", "infinite_terms",
            "overflowing_identity", "overflowing_norm"])
    def test_overflow_rejected_without_traceback(self, tmp_path, edits, quantity):
        config = load_bundled_config("stvk_uniaxial")
        for key, value in edits.items():
            section, _, name = key.rpartition(".")
            (config[section] if section else config)[name] = value
        out = tmp_path / "out"
        result = run_cli(["run", write_config(tmp_path, config), "--out", str(out)])
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"error: NonFiniteValue: {quantity} is not finite")
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_warnings_of_a_run_that_passes_are_shown(self, tmp_path, uniaxial,
                                                      monkeypatch):
        inner = cli.fn.inner_relative_power

        def overflowing(scenario):
            np.float64(1e308) * 10.0
            return inner(scenario)

        monkeypatch.setattr(cli.fn, "inner_relative_power", overflowing)
        with pytest.raises(RuntimeWarning, match="overflow"):  # the warning filter holds
            run_cli(["run", uniaxial, "--out", str(tmp_path / "a")])
        with pytest.warns(RuntimeWarning, match="overflow"):
            result = run_cli(["run", uniaxial, "--out", str(tmp_path / "b")])
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("motion", [
        # det F = 1 - cos(k . x) is zero at node 171 of 343 only
        {"preset": "sinusoidal", "amplitude": 1.0, "wavevector": [1.0, 0.37, 0.113],
         "direction": [-1.0, 0.0, 0.0]},
        {"preset": "sinusoidal", "amplitude": float("nan"),
         "wavevector": [1.0, 0.0, 0.0], "direction": [0.0, 1.0, 0.0]},
        # det F = 1 + 2 pi a cos(2 pi x1) = -1e-6 on the faces x1 = +-0.5 only;
        # its smallest value at a volume node is 0.0128
        {"preset": "sinusoidal", "amplitude": 1.000001 / (2.0 * math.pi),
         "wavevector": [2.0 * math.pi, 0.0, 0.0], "direction": [1.0, 0.0, 0.0]},
    ], ids=["single_node_det_zero", "nan_amplitude", "surface_only_det_negative"])
    def test_bad_node_or_nan_motion_rejected_without_traceback(self, tmp_path, motion):
        config = load_bundled_config("closure_sinusoidal_graded_stvk")
        config["geometry"] = {"kind": "box", "center": [0.0, 0.0, 0.0],
                              "halfwidths": [0.5, 0.5, 0.5]}
        config["quadrature"] = {"volume_order": 7, "surface_order": 7}
        config["motion"] = motion
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = run_cli(["run", path, "--out", str(out)])
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("at_node,command,message", [
        (False, ["run"],
         "det F = -0.172318 <= 0 at x = [-3.79684896  3.85900012  3.81735227]"),
        (True, ["run"], "det F = -1 <= 0 at x = [-0.48014493 -0.48014493 -0.48014493]"),
        # order 8, the config's own, so the first node is the one run names
        (True, ["sweep", "--axis", "quad", "--values", "8"],
         "det F = -1 <= 0 at x = [-0.48014493 -0.48014493 -0.48014493]"),
    ], ids=["off_the_nodes_run", "at_a_node_run", "at_a_node_sweep"])
    def test_non_positive_jacobian_names_the_point(self, tmp_path, at_node, command,
                                                   message):
        if at_node:
            config = load_bundled_config("stvk_uniaxial")
            config["motion"] = {"preset": "homogeneous", "matrix": [
                [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
            del config["checks"]["eshelby_diagonal"]
        else:
            # det F = 1 - 0.04 r^2 in-plane: positive at the 8 nodes of the box,
            # negative at Noether sample points near its corners
            config = load_bundled_config("surface_independence_quadratic")
            config["geometry"] = {"kind": "box", "center": [0.0, 0.0, 0.0],
                                  "halfwidths": [4.0, 4.0, 4.0]}
            config["quadrature"] = {"volume_order": 2, "surface_order": 2}
            config["potential"] = {"kind": "zero"}
            config["checks"] = {"noether": {"points": 100, "condition_tolerance": 1e-6}}
        out = tmp_path / "out"
        result = run_cli([command[0], write_config(tmp_path, config), *command[1:],
                          "--out", str(out)])
        assert result.returncode == 2
        assert result.stderr == f"error: NonPositiveJacobian: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("name", [".", ".."])
    def test_dot_name_rejected_without_output(self, tmp_path, command, name):
        # the name is the report directory: "." and ".." would write into
        # the output directory itself, or above it
        config = load_bundled_config("stvk_uniaxial")
        config["name"] = name
        args = [command, write_config(tmp_path, config)]
        args += ["--axis", "quad", "--values", "2"] if command == "sweep" else []
        result = run_cli(args + ["--out", str(tmp_path / "out" / "inner")])
        assert result.returncode == 2, result.stderr
        assert "config invalid at name: " in result.stderr
        assert not (tmp_path / "out").exists()

    def test_control_across_the_part_own_spheres_passes(self, tmp_path):
        # the control holds on any shell, whose radii the check restates
        config = load_bundled_config("surface_independence_graded_control")
        config["geometry"].update(inner_radius=0.6, outer_radius=0.8)
        config["checks"]["surface_independence"].update(inner_radius=0.6,
                                                        outer_radius=0.8)
        out = tmp_path / "out"
        result = run_cli(["run", write_config(tmp_path, config), "--out", str(out)])
        assert result.returncode == 0, result.stderr
        rows = read_csv(out / config["name"] / "checks.csv")
        assert [row["status"] for row in rows] == ["pass"]

    @pytest.mark.parametrize("rule,code,value", [
        (14, 0, pytest.approx(0.0, abs=1e-15)), (6, 1, pytest.approx(1.499e-2, rel=1e-3))],
        ids=["part_at_14_points", "part_at_6_points"])
    def test_control_gate_follows_the_part_rule(self, tmp_path, rule, code, value):
        # the spheres are the part's own, at its rule: the graded flux integrand
        # has degree 4 on a sphere, which the 6-point rule (degree 3) misses
        config = load_bundled_config("surface_independence_graded_control")
        config["quadrature"]["angular_points"] = rule
        out = tmp_path / "out"
        result = run_cli(["run", write_config(tmp_path, config), "--out", str(out)])
        assert result.returncode == code, result.stderr
        [row] = read_csv(out / config["name"] / "checks.csv")
        assert row["metric"] == "difference_vs_shell_integral"
        assert float(row["value"]) == value
        assert float(row["tolerance"]) == 1e-5

    @pytest.mark.parametrize("name", ["surface_independence_quadratic",
                                      "surface_independence_graded_control"])
    def test_check_without_restated_part_writes_the_same_report(self, tmp_path, name):
        config = load_bundled_config(name)
        check = config["checks"]["surface_independence"]
        assert {"inner_radius", "outer_radius"} <= set(check)
        bare = copy.deepcopy(config)
        for key in ("inner_radius", "outer_radius", "angular_points"):
            bare["checks"]["surface_independence"].pop(key, None)
        reports = []
        for label, cfg in (("stated", config), ("bare", bare)):
            out = tmp_path / label
            result = run_cli(["run", write_config(tmp_path, cfg, f"{label}.json"),
                              "--out", str(out)])
            assert result.returncode == 0, result.stderr
            reports.append((out / name / "surface_independence.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_invalid_value_is_named_by_its_path(self, tmp_path):
        config = load_bundled_config("stvk_uniaxial")
        config["geometry"]["center"] = None
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = run_cli(["run", path, "--out", str(out)])
        assert result.returncode == 2
        assert "config invalid at geometry/center: " in result.stderr
        assert not out.exists()

    def test_missing_config_is_io_error(self, tmp_path):
        result = run_cli(["run", str(tmp_path / "absent.json")])
        assert result.returncode == 3

    def test_run_without_arguments_is_usage_error(self):
        result = run_cli(["run"])
        assert result.returncode == 2

    def test_unknown_flag_is_usage_error(self):
        result = run_cli(["run", "--bogus"])
        assert result.returncode == 2

    def test_tolerance_failure_exits_one(self, tmp_path):
        config = load_bundled_config("stvk_uniaxial")
        config["checks"]["eshelby_diagonal"]["expected"] = [1.0, 1.0, 1.0]
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        # through the module entry point, whose exit status is what main returns
        result = subprocess.run([sys.executable, "-m", "relpower", "run", path,
                                 "--out", str(out)], capture_output=True, text=True)
        assert result.returncode == 1, result.stderr
        rows = read_csv(out / "stvk_uniaxial" / "checks.csv")
        failed = [r for r in rows if r["status"] == "fail"]
        assert len(failed) == 1 and failed[0]["check"] == "eshelby_diagonal"

    def test_noether_scenario_report(self, tmp_path):
        path = write_config(tmp_path, load_bundled_config("noether_harmonic"))
        out = tmp_path / "out"
        result = run_cli(["run", path, "--out", str(out)])
        assert result.returncode == 0, result.stderr
        rows = read_csv(out / "noether_harmonic" / "noether.csv")
        assert len(rows) == 1
        assert float(rows[0]["max_flux_divergence"]) <= 1e-6

    def test_thin_box_samples_inside(self, tmp_path):
        # the thinnest halfwidth is below SAMPLE_MARGIN of the largest one
        config = load_bundled_config("noether_harmonic")
        half = [0.5, 1e-4, 0.5]
        config["geometry"] = {"kind": "box", "center": [0.0, 0.0, 0.0], "halfwidths": half}
        path = write_config(tmp_path, config)
        result = run_cli(["run", path, "--out", str(tmp_path / "out")])
        assert result.returncode == 0, result.stderr
        # the points the noether check drew: the scenario seed, a fresh generator
        scenario = Scenario(config)
        points = scenario.part.sample_interior(np.random.default_rng(scenario.seed),
                                               config["checks"]["noether"]["points"])
        assert np.all(np.abs(points) < half)

    def test_in_process_calls_share_the_parser_not_their_state(self, tmp_path, uniaxial,
                                                              capsys, monkeypatch):
        first, last = tmp_path / "first", tmp_path / "last"
        assert cli.main(["run", uniaxial, "--out", str(first)]) == 0
        assert cli.main(["list-presets", "--json"]) == 0
        with pytest.raises(SystemExit) as usage:
            cli.main(["sweep", uniaxial, "--axis", "quad", "--values", "abc",
                      "--out", str(tmp_path / "sweep")])
        assert usage.value.code == 2
        monkeypatch.setenv(cli.DEFAULT_OUTPUT_ENV, str(last))
        assert cli.main(["run", uniaxial]) == 0  # --out and --all back at their defaults
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == lines[-1] == "PASS stvk_uniaxial"
        assert json.loads("\n".join(lines[1:-1])) == cli.preset_catalog()
        assert cli.build_parser() is cli.build_parser()
        assert not (tmp_path / "sweep").exists()
        names = sorted(os.listdir(first / "stvk_uniaxial"))
        assert names == sorted(os.listdir(last / "stvk_uniaxial"))
        for name in names:
            assert ((first / "stvk_uniaxial" / name).read_bytes()
                    == (last / "stvk_uniaxial" / name).read_bytes()), name

    def test_manifest_reports_grouping_factors(self, tmp_path):
        config = load_bundled_config("closure_skewed_graded_stvk")
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]).returncode == 0
        manifest = json.loads(
            (out / "closure_skewed_graded_stvk" / "manifest.json").read_text())
        factors = manifest["grouping_factors"]
        assert factors["material_rotation"] == pytest.approx(2.0, abs=1e-6)
        assert manifest["passed"] is True


class TestSweep:
    def test_quadrature_orders_monotone(self, tmp_path):
        config = load_bundled_config("closure_sinusoidal_graded_stvk")
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = run_cli(["sweep", path, "--axis", "quad",
                          "--values", "2", "4", "6", "--out", str(out)])
        assert result.returncode == 0, result.stderr
        rows = read_csv(out / config["name"] / "convergence.csv")
        errors = [float(r["power_identity_error"]) for r in rows]
        assert errors == sorted(errors, reverse=True)

    def test_quadrature_sweep_refines_a_ball(self, monkeypatch):
        # a ball reads radial_order; its exact integrands keep the rows equal,
        # so only the node counts show that each order built its own rule
        built = []

        class Spy(Scenario):
            def __init__(self, config):
                super().__init__(config)
                built.append(self)

        monkeypatch.setattr(cli, "Scenario", Spy)
        cli.sweep_scenario(load_bundled_config("noether_harmonic"), "quad", [2, 4, 6, 8])
        assert [len(s.volume_data.points) for s in built] == [52, 104, 156, 208]

    def test_seedless_sweep_rows_share_the_config_seed(self):
        # each swept copy samples the unswept config's points: the pointwise
        # gap does not depend on the quadrature order, so it reads one value
        config = load_bundled_config("closure_sinusoidal_graded_stvk")
        del config["seed"]
        _, rows = cli.sweep_scenario(config, "quad")
        assert len({row[-1] for row in rows}) == 1
        seeded = dict(config, seed=config_seed(config))
        assert (cli.sweep_scenario(config, "fd", [1e-3, 1e-4])
                == cli.sweep_scenario(seeded, "fd", [1e-3, 1e-4]))

    def test_polynomial_scenario_at_float_floor(self, tmp_path):
        # polynomial integrands are integrated exactly at every order past
        # the degree bound, so the identity gap sits at the rounding floor
        config = load_bundled_config("stvk_uniaxial")
        config["virtual_fields"] = {
            "v": {"preset": "affine", "value": [0.3, -0.1, 0.2],
                  "matrix": [[0.2, 0.1, 0.0], [0.0, -0.3, 0.1], [0.1, 0.0, 0.4]]},
            "w": {"preset": "affine", "value": [-0.2, 0.4, 0.1],
                  "matrix": [[0.1, -0.2, 0.0], [0.3, 0.0, 0.1], [0.0, 0.1, -0.2]]},
        }
        del config["checks"]
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = run_cli(["sweep", path, "--axis", "quad",
                          "--values", "3", "5", "7", "--out", str(out)])
        assert result.returncode == 0, result.stderr
        rows = read_csv(out / config["name"] / "convergence.csv")
        for row in rows:
            assert float(row["power_identity_error"]) <= 1e-14

    def test_non_numeric_values_are_usage_error(self, tmp_path, uniaxial):
        result = run_cli(["sweep", uniaxial, "--axis", "quad", "--values", "abc",
                          "--out", str(tmp_path / "out")])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    def test_fractional_quadrature_order_is_config_error(self, tmp_path, uniaxial):
        out = tmp_path / "out"
        for value in ("2.5", "nan", "inf"):
            result = run_cli(["sweep", uniaxial, "--axis", "quad",
                              "--values", "2", value, "--out", str(out)])
            assert result.returncode == 2, value
            assert "integer" in result.stderr and "Traceback" not in result.stderr
            assert not out.exists()

    @pytest.mark.parametrize("axis,section,value", [
        ("quad", "quadrature", []),
        ("fd", "derivatives", {"mode": "bogus"}),
    ], ids=["quad_over_bad_quadrature", "fd_over_bad_derivatives"])
    def test_sweep_validates_the_config_it_was_given(self, tmp_path, axis, section,
                                                     value):
        # each swept copy overwrites this section before it validates itself
        config = load_bundled_config("stvk_uniaxial")
        config[section] = value
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = run_cli(["sweep", path, "--axis", axis, "--values", "2",
                          "--out", str(out)])
        assert result.returncode == 2, result.stderr
        assert f"config invalid at {section}" in result.stderr
        assert not out.exists()

    def test_fd_step_v_curve(self, tmp_path):
        config = load_bundled_config("closure_sinusoidal_graded_stvk")
        config["quadrature"] = {"volume_order": 4, "surface_order": 4}
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = run_cli(["sweep", path, "--axis", "fd",
                          "--values", "1e-2", "1e-3", "1e-5", "1e-6",
                          "--out", str(out)])
        assert result.returncode == 0, result.stderr
        rows = read_csv(out / config["name"] / "convergence.csv")
        errors = [float(r["pointwise_divergence_error"]) for r in rows]
        best = min(errors)
        assert errors[0] > best  # truncation branch
        assert errors[-1] > best  # rounding branch


class TestListPresets:
    def test_text_listing(self):
        result = run_cli(["list-presets"])
        assert result.returncode == 0
        for name in ("stvk", "neo_hookean", "quadratic", "harmonic"):
            assert name in result.stdout

    def test_json_listing(self):
        result = run_cli(["list-presets", "--json"])
        assert result.returncode == 0
        catalog = json.loads(result.stdout)
        assert set(catalog["materials"]) == {"stvk", "neo_hookean", "quadratic"}
        assert set(catalog["potentials"]) == {"zero", "linear"}
        assert "stvk_uniaxial" in catalog["bundled_scenarios"]

    def test_unknown_subcommand_is_usage_error(self):
        result = run_cli(["frobnicate"])
        assert result.returncode == 2
