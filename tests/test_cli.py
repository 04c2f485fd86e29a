import contextlib
import copy
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from relpower import cli
from relpower import configurational as conf
from relpower import functionals as fn
from relpower.geometry import weighted_fsum
from relpower.scenarios import (Scenario, bundled_scenario_names, config_seed,
                                load_bundled_config)


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
         "v"),
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
        # every residual is finite, and the norm of R3 = (-1.44e308, -1.2e308, 0)
        # overflows
        ({"sources": {"mode": "preset", "b": {"preset": "constant",
                                              "value": [1.2e308, 1.2e308, 0.0]}},
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

    @pytest.mark.parametrize("steps,code", [
        # a million part scales: every quotient of the bounded motion vanishes,
        # F reads as I, and both gates passed on it
        ({"divergence_step": 1e6, "motion_step": 1e5}, 2),
        ({"divergence_step": 0.1, "motion_step": 0.10000000000000002}, 2),
        ({"divergence_step": 0.10000000000000002, "motion_step": 0.01}, 2),
        # the widest steps taken, which the gates fail
        ({"divergence_step": 0.1, "motion_step": 0.1}, 1),
    ])
    def test_finite_difference_steps_are_at_most_a_tenth_of_the_part(self, tmp_path,
                                                                      steps, code):
        config = load_bundled_config("closure_sinusoidal_graded_stvk_fd")
        config["derivatives"] = {"mode": "fd", **steps}
        out = tmp_path / "out"
        result = run_cli(["run", write_config(tmp_path, config), "--out", str(out)])
        assert result.returncode == code, result.stderr
        if code == 2:
            assert result.stderr.startswith("error: config invalid at derivatives/")
            assert "is greater than the maximum of 0.1" in result.stderr
            assert not out.exists()

    def test_preset_couple_is_gated_through_the_invariance_check(self, tmp_path,
                                                                 monkeypatch):
        # an anisotropic body carries a preset couple mu: the literal power's
        # couple rows -1/2 mu . curl w move the material-rotation coefficient,
        # which the gate sets against R4 = int (X x g - mu) dx + int X x PP n dA
        config = load_bundled_config("preset_nonequilibrium")
        config["material"]["model"] = "quadratic"
        config["sources"]["mu"] = {"preset": "constant", "value": [0.3, -0.5, 0.2]}
        path = write_config(tmp_path, config)
        result = run_cli(["run", path, "--out", str(tmp_path / "out")])
        assert result.returncode == 0, result.stderr
        reports = tmp_path / "out" / "preset_nonequilibrium"
        assert float(read_csv(reports / "power.csv")[0]["couple"]) == pytest.approx(
            0.0856, abs=5e-5)
        [gate] = read_csv(reports / "checks.csv")
        assert (gate["metric"], float(gate["tolerance"])) == ("max_prediction_error", 1e-10)
        assert float(gate["value"]) < 1e-15

        power_rows = fn._power_rows

        def negated_couple(scenario):
            material, couple, pieces = power_rows(scenario)
            return material, lambda curl_w: -couple(curl_w), pieces

        monkeypatch.setattr(fn, "_power_rows", negated_couple)
        result = run_cli(["run", path, "--out", str(tmp_path / "negated")])
        assert result.returncode == 1, result.stderr
        [gate] = read_csv(tmp_path / "negated" / "preset_nonequilibrium" / "checks.csv")
        assert gate["status"] == "fail" and float(gate["value"]) > 1e-2

    def test_finite_norm_of_huge_components_is_reported(self, tmp_path):
        # R1 = (-1e308, 0, 0): its squares overflow, its norm 1e308 does not
        config = load_bundled_config("stvk_uniaxial")
        config["sources"] = {"mode": "preset", "b": HUGE_NEGATIVE_X}
        config["checks"] = {"balances": {"tolerance": 1e-12}}
        out = tmp_path / "out"
        result = run_cli(["run", write_config(tmp_path, config), "--out", str(out)])
        assert result.returncode == 1, result.stderr
        assert result.stderr == "1 scenario(s) failed tolerances: stvk_uniaxial\n"
        rows = read_csv(out / "stvk_uniaxial" / "balances.csv")
        force = [row for row in rows if row["row"] == "force"]
        assert [float(row["norm"]) for row in force] == [1e308, 1e308]

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
        (False, ["run"], "det F = -0.5 <= 0 at x = [0. 0. 0.]"),
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
            # det F = 1 - 1.5 cos(kappa x_1): 1 at the order-2 Gauss nodes
            # x_1 = +-0.5/sqrt(3), at least 1 on the faces x_1 = +-0.5, and -0.5
            # at the centre, where only the eshelby_diagonal check reads the state
            kappa = math.pi * math.sqrt(3.0)
            config = load_bundled_config("stvk_uniaxial")
            config["motion"] = {"preset": "sinusoidal", "amplitude": 1.5 / kappa,
                                "wavevector": [kappa, 0.0, 0.0],
                                "direction": [-1.0, 0.0, 0.0]}
            config["quadrature"] = {"volume_order": 2, "surface_order": 2}
            for check in ("balances", "power_identity", "standard_power"):
                del config["checks"][check]
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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_reports_get_the_mode_a_plain_open_gives(self, tmp_path, command, umask,
                                                     uniaxial):
        args = [command, uniaxial, "--out", str(tmp_path / "out")]
        args += ["--axis", "quad", "--values", "2"] if command == "sweep" else []
        previous = os.umask(umask)
        try:
            result = run_cli(args)
            directory = tmp_path / "out" / "stvk_uniaxial"
            with open(directory / "plain", "w"):
                pass
        finally:
            os.umask(previous)
        assert result.returncode == 0, result.stderr
        want = stat.S_IMODE((directory / "plain").stat().st_mode)
        assert want == 0o666 & ~umask
        reports = sorted(path.name for path in directory.iterdir() if path.name != "plain")
        assert reports == (["balances.csv", "checks.csv", "manifest.json",
                            "power.csv"] if command == "run" else ["convergence.csv"])
        for name in reports:
            assert stat.S_IMODE((directory / name).stat().st_mode) == want, name

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_reports_are_written_without_the_process_umask(self, tmp_path, command,
                                                          uniaxial, monkeypatch):
        def umask(mask):
            raise AssertionError("the process umask was read or set")

        args = [command, uniaxial, "--out", str(tmp_path / "out")]
        args += ["--axis", "quad", "--values", "2"] if command == "sweep" else []
        monkeypatch.setattr(os, "umask", umask)
        result = run_cli(args)
        assert result.returncode == 0, result.stderr

    def test_report_target_that_is_a_directory_is_io_error(self, tmp_path, uniaxial):
        directory = tmp_path / "out" / "stvk_uniaxial"
        (directory / "power.csv").mkdir(parents=True)
        result = run_cli(["run", uniaxial, "--out", str(tmp_path / "out")])
        assert result.returncode == 3
        assert result.stderr.startswith("io error: ")
        assert sorted(path.name for path in directory.iterdir()) == ["balances.csv",
                                                                     "power.csv"]

    def test_planted_temp_name_is_neither_followed_nor_removed(self, tmp_path, uniaxial,
                                                               monkeypatch):
        directory = tmp_path / "out" / "stvk_uniaxial"
        directory.mkdir(parents=True)
        victim = tmp_path / "victim"
        victim.write_text("keep")
        monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
        planted = directory / f".tmp-{bytes(8).hex()}"
        planted.symlink_to(victim)
        result = run_cli(["run", uniaxial, "--out", str(tmp_path / "out")])
        assert result.returncode == 3
        assert result.stderr.startswith("io error: ")
        assert victim.read_text() == "keep"
        assert [path.name for path in directory.iterdir()] == [planted.name]
        assert planted.is_symlink()

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

    def test_all_with_a_config_is_usage_error(self, tmp_path, uniaxial):
        out = tmp_path / "out"
        result = run_cli(["run", "--all", uniaxial, "--out", str(out)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: provide either a config path or --all\n"
        assert not out.exists()

    def test_run_all_writes_each_scenario_before_building_the_next(self, tmp_path,
                                                                  monkeypatch):
        events = []

        def build(config):
            events.append(("build", config["name"]))
            return Scenario(config)

        def write(run, out_dir):
            events.append(("write", run.scenario.name))
            write_reports(run, out_dir)

        write_reports = cli.ScenarioRun.write
        monkeypatch.setattr(cli, "Scenario", build)
        monkeypatch.setattr(cli.ScenarioRun, "write", write)
        result = run_cli(["run", "--all", "--out", str(tmp_path / "out")])
        assert result.returncode == 0, result.stderr
        names = bundled_scenario_names()
        assert events == [(event, name) for name in names for event in ("build", "write")]
        assert result.stdout == "".join(f"PASS {name}\n" for name in names)

    def test_batch_that_stops_keeps_the_reports_before_it(self, tmp_path):
        names = bundled_scenario_names()
        out = tmp_path / "out"
        (out / names[2] / "power.csv").mkdir(parents=True)
        result = run_cli(["run", "--all", "--out", str(out)])
        assert result.returncode == 3
        assert result.stdout == f"PASS {names[0]}\nPASS {names[1]}\n"
        assert sorted(os.listdir(out)) == sorted(names[:3])
        for name in names[:2]:
            assert (out / name / "manifest.json").is_file()

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
        assert float(rows[0]["boundary_flux_gap"]) <= 1e-6

    def test_noether_points_key_is_ignored(self, tmp_path):
        # the schema still admits "points"; the check reads the volume nodes
        config = load_bundled_config("noether_harmonic")
        with_points = copy.deepcopy(config)
        with_points["checks"]["noether"]["points"] = 4
        outs = []
        for label, cfg in (("without", config), ("with", with_points)):
            out = tmp_path / label
            result = run_cli(["run", write_config(tmp_path, cfg, f"{label}.json"),
                              "--out", str(out)])
            assert result.returncode == 0, result.stderr
            outs.append(out / "noether_harmonic")
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        for name in names:
            first, second = ((out / name).read_bytes() for out in outs)
            if name == "manifest.json":   # only the digest of the config differs
                first, second = ({**json.loads(text), "config_sha256": None}
                                 for text in (first, second))
            assert first == second, name

    def test_gravity_that_no_body_force_carries_fails_the_flux_gap(self, tmp_path):
        # u = -g . y with g orthogonal to v keeps the first condition at 0; but
        # the closure body force is -Div P = 0, not g, so the flux balance is
        # off by int_b g . F w dx
        config = load_bundled_config("noether_harmonic")
        gravity = [0.5, 0.0, -0.3]
        assert np.dot(gravity, config["virtual_fields"]["v"]["value"]) == 0.0
        config["potential"] = {"kind": "linear", "gravity": gravity}
        out = tmp_path / "out" / "noether_harmonic"
        result = run_cli(["run", write_config(tmp_path, config), "--out",
                          str(out.parent)])
        assert result.returncode == 1, result.stderr
        failed = [(r["check"], r["metric"]) for r in read_csv(out / "checks.csv")
                  if r["status"] == "fail"]
        assert failed == [("noether", "boundary_flux_gap")]
        report = read_csv(out / "noether.csv")[0]
        assert float(report["max_first_condition"]) <= 1e-16
        vol = Scenario(config).volume_data
        expected = weighted_fsum(np.einsum("i,ijn,jn->n", gravity, vol.f_grad, vol.w),
                                 vol.weights)
        assert float(report["boundary_flux_gap"]) == pytest.approx(abs(expected),
                                                                   rel=1e-12)

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


# An affine body force that no stress carries: its value leaves R1, and its
# gradient a power gap that the odd sinusoidal v of the box scenarios reads.
UNBALANCED = {"mode": "preset", "b": {"preset": "affine", "value": [0.1, 0.0, 0.0],
                                      "matrix": [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0],
                                                 [0.0, 0.0, 0.1]]}}
GRAVITY = {"kind": "linear", "gravity": [0.0, 0.0, -1.0]}

# (scenario, "check:metric") -> (path, value): a one-key config edit that fails
# the gate of ``run --all`` while the run raises nothing
NEGATIVE_CONTROLS = {
    **{(name, gate): (("sources",), UNBALANCED)
       for name in ("closure_shear_neohookean", "closure_shear_neohookean_fd",
                    "closure_sinusoidal_graded_stvk", "closure_sinusoidal_graded_stvk_fd",
                    "closure_skewed_graded_stvk", "stvk_uniaxial")
       for gate in ("balances:max_residual_norm", "power_identity:normalized_abs_difference")},
    **{(name, "invariance:max_coefficient_norm"): (("sources",), UNBALANCED)
       for name in ("closure_shear_neohookean", "closure_sinusoidal_graded_stvk",
                    "closure_skewed_graded_stvk")},
    ("stvk_uniaxial", "eshelby_diagonal:max_abs_error"): (("material", "lam", "value"), 1.1),
    ("noether_graded", "noether:max_first_condition"): (("potential",), GRAVITY),
    # a symmetric traceless, so isochoric, linear w: the second condition
    # is then no longer de/dx|expl . w
    ("noether_graded", "noether:max_second_condition_mismatch"): (
        ("virtual_fields", "w"),
        {"preset": "linear", "matrix": [[0.2, 0.0, 0.0], [0.0, -0.2, 0.0], [0.0, 0.0, 0.0]]}),
    ("noether_harmonic", "noether:max_first_condition"): (("potential",), GRAVITY),
    ("noether_harmonic", "noether:max_second_condition"): (
        ("material", "mu"), {"kind": "affine", "value": 1.0, "slope": [0.0, 0.0, 0.4]}),
    ("noether_harmonic", "noether:boundary_flux_gap"): (("potential",), GRAVITY),
    # the 6-point rule misses the graded shell's integral of de/dx|expl
    ("surface_independence_graded_control",
     "surface_independence:difference_vs_shell_integral"):
        (("quadrature", "angular_points"), 6),
    # a body force of 5e-9 over the shell's volume: |R1| = 1.27e-8, over the 1e-9
    # tolerance
    ("surface_independence_quadratic", "balances:max_residual_norm"): (("sources",), {
        "mode": "preset", "b": {"preset": "constant", "value": [5e-9, 0.0, 0.0]}}),
    # a graded modulus: outer - inner is then int_b de/dx|expl dx, not zero
    ("surface_independence_quadratic", "surface_independence:difference_vs_flux_scale"):
        (("material", "mu"), {"kind": "affine", "value": 1.0, "slope": [0, 0, 0.4]}),
}

# gates of ``run --all`` that no config edit can fail
UNFAILABLE = {
    ("stvk_uniaxial", "standard_power:relative_difference"):
        "with w = 0 the power sums the rows b.v and Pn.v the reference sums, plus exact "
        "zeros: it compares one number with itself",
    ("standard_power_degeneracy", "standard_power:relative_difference"):
        "the same number compared with itself",
    ("preset_nonequilibrium", "invariance:max_prediction_error"):
        "the defect coefficients equal R1..R4 for any data, up to round-off",
}


def _gates(run):
    return {f"{gate.check}:{gate.metric}": gate for gate in run.gates}


def _edited(name, path, value):
    config = load_bundled_config(name)
    *parents, key = path
    node = config
    for parent in parents:
        node = node[parent]
    node[key] = value
    return config


def _run(config):
    run = cli.ScenarioRun(config)
    run.run()
    return run


class TestNegativeControls:
    def test_every_gate_of_run_all_has_a_control_or_a_reason(self):
        written = {(name, gate) for name in bundled_scenario_names()
                   for gate in _gates(_run(load_bundled_config(name)))}
        assert not NEGATIVE_CONTROLS.keys() & UNFAILABLE.keys()
        assert NEGATIVE_CONTROLS.keys() | UNFAILABLE.keys() == written

    @pytest.mark.parametrize("name,gate", NEGATIVE_CONTROLS,
                             ids=[f"{n}-{g}" for n, g in NEGATIVE_CONTROLS])
    def test_one_key_edit_fails_the_gate(self, name, gate):
        run = _run(_edited(name, *NEGATIVE_CONTROLS[name, gate]))
        assert not _gates(run)[gate].passed
        assert not run.passed    # an exit-1 verdict: the run raised nothing

    @pytest.mark.parametrize("name,gate", UNFAILABLE, ids=[f"{n}-{g}" for n, g in UNFAILABLE])
    def test_unfailable_gate_passes_under_an_unbalanced_body_force(self, name, gate):
        value = _gates(_run(_edited(name, ("sources",), UNBALANCED)))[gate].value
        assert value <= (0.0 if gate.startswith("standard_power") else 1e-15)


def test_gate_value_is_the_reported_error_over_its_scale():
    run = _run(load_bundled_config("closure_skewed_graded_stvk"))
    gates = _gates(run)
    header, [row] = run.tables["power"]
    power = dict(zip(header, row))
    assert (gates["power_identity:normalized_abs_difference"].value
            == power["abs_difference"] / (1.0 + abs(power["total"])))
    header, rows = run.tables["invariance"]
    worst = max(row[header.index("coeff_norm")] for row in rows)
    assert (gates["invariance:max_coefficient_norm"].value
            == worst / run.manifest_extra["power_scale"])


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

    def test_row_at_the_scenario_own_order_equals_its_run(self, tmp_path):
        # both read one shared_results call: the power gap and the largest
        # default balance norm agree bit for bit (17 digits round-trip a float)
        config = load_bundled_config("closure_skewed_graded_stvk")
        order = config["quadrature"]["volume_order"]
        assert config["quadrature"] == {"volume_order": order, "surface_order": order}
        path, out = write_config(tmp_path, config), tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]).returncode == 0
        assert run_cli(["sweep", path, "--axis", "quad", "--values", str(order),
                        "--out", str(out)]).returncode == 0
        directory = out / config["name"]
        [row] = read_csv(directory / "convergence.csv")
        [power] = read_csv(directory / "power.csv")
        norms = [r["norm"] for r in read_csv(directory / "balances.csv")
                 if r["pivot"] == "default"]
        assert row["power_identity_error"] == power["abs_difference"]
        assert row["max_balance_residual"] == max(norms, key=float)

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
        assert [len(s.volume_data.weights) for s in built] == [52, 104, 156, 208]

    def test_pointwise_divergence_error_reads_the_volume_nodes(self, monkeypatch):
        scenario = Scenario(load_bundled_config("closure_sinusoidal_graded_stvk"))
        seen = []
        divergences = conf.stress_divergences

        def spy(model, motion, x, *rest):
            seen.append(x)
            return divergences(model, motion, x, *rest)

        monkeypatch.setattr(conf, "stress_divergences", spy)
        error = cli._pointwise_divergence_error(scenario)
        assert len(seen) == 2 and all(x is scenario.volume_data.points for x in seen)
        assert 0.0 < error < 1e-6

    def test_fd_sweep_divergence_error_is_second_order(self):
        # central differences of F: a decade off the divergence step takes about
        # two decades off the pointwise Div P error
        config = load_bundled_config("closure_sinusoidal_graded_stvk_fd")
        _, rows = cli.sweep_scenario(config, "fd", [1e-2, 1e-3])
        coarse, fine = (row[5] for row in rows)
        assert 0.0 < fine <= coarse / 10 ** 1.9

    def test_seedless_sweep_rows_share_the_config_seed(self):
        # each swept copy takes the unswept config's seed
        config = load_bundled_config("closure_sinusoidal_graded_stvk")
        del config["seed"]
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

    def test_fd_sweep_values_above_a_tenth_are_invalid_config(self, tmp_path):
        # a sweep value is the divergence step, at most 0.1 of the part scale like
        # a config's: the sweep stops before it writes a row
        config = load_bundled_config("closure_sinusoidal_graded_stvk")
        config["quadrature"] = {"volume_order": 4, "surface_order": 4}
        out = tmp_path / "out"
        result = run_cli(["sweep", write_config(tmp_path, config), "--axis", "fd",
                          "--values", "1e-2", "0.2", "--out", str(out)])
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(
            "error: config invalid at derivatives/divergence_step: 0.2 is greater")
        assert not out.exists()


# config bytes the JSON decoder cannot read: not UTF-8, nested deeper than it
# recurses, and an integer longer than Python converts
UNREADABLE_CONFIGS = {"not_utf8": b'{"name": "\xff\xfe"}', "too_deep": b"[" * 100_000,
                      "too_many_digits": b'{"seed": ' + b"7" * 5000 + b"}"}


@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "quad"]],
                         ids=["run", "sweep"])
@pytest.mark.parametrize("content", UNREADABLE_CONFIGS.values(), ids=UNREADABLE_CONFIGS)
def test_unreadable_config_bytes_are_invalid_config(tmp_path, command, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    result = run_cli([command[0], str(path), *command[1:], "--out", str(out)])
    assert result.returncode == 2
    assert result.stderr.startswith("error: config is not valid JSON: ")
    assert result.stderr.count("\n") == 1
    assert not out.exists()


def run_with_closed_stdout(args, buffered=False):
    """``python -m relpower args`` writing to a pipe whose read end is closed
    before the process starts, its stdout block-buffered or unbuffered."""
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "relpower", *args], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
class TestClosedStdout:
    # output to a reader that has gone away is dropped; the run goes on, and
    # exits as it would with stdout open, with nothing on stderr at exit either

    @pytest.mark.parametrize("args", [["list-presets"], ["list-presets", "--json"]],
                             ids=["text", "json"])
    def test_list_presets(self, args, buffered):
        result = run_with_closed_stdout(args, buffered)
        assert (result.returncode, result.stderr) == (0, "")

    def test_run_all_writes_every_report(self, tmp_path, buffered):
        result = run_with_closed_stdout(["run", "--all", "--out", str(tmp_path)],
                                        buffered)
        assert (result.returncode, result.stderr) == (0, "")
        assert sorted(os.listdir(tmp_path)) == bundled_scenario_names()
        for name in bundled_scenario_names():
            assert json.loads((tmp_path / name / "manifest.json").read_text())["passed"]

    def test_report_error_is_still_io_error(self, tmp_path, buffered):
        target = tmp_path / "file"
        target.write_text("")
        result = run_with_closed_stdout(["run", "--all", "--out", str(target)], buffered)
        assert result.returncode == 3
        assert result.stderr.startswith("io error: ") and result.stderr.count("\n") == 1


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
