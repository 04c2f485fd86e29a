import csv
import json
import os
import subprocess
import sys

import pytest

from relpower.scenarios import load_bundled_config

RUN = [sys.executable, "-m", "relpower"]


def run_cli(args, **kwargs):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kwargs)


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


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

    @pytest.mark.parametrize("section,value", [
        ("geometry", {"kind": "box", "center": [float("nan"), 0.0, 0.0],
                      "halfwidths": [0.5, 0.5, 0.5]}),
        ("geometry", {"kind": "box", "center": [0.0, 0.0, 0.0],
                      "halfwidths": [0.0, 0.0, 0.0]}),
        ("motion", {"preset": "rotation", "axis": [0.0, 0.0, 0.0], "angle": 0.5}),
    ], ids=["nan_center", "zero_halfwidths", "zero_rotation_axis"])
    def test_degenerate_config_rejected_without_traceback(self, tmp_path, section,
                                                          value):
        config = load_bundled_config("stvk_uniaxial")
        config[section] = value
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = run_cli(["run", path, "--out", str(out)])
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("motion", [
        # det F = 1 - cos(k . x) is zero at node 171 of 343 only
        {"preset": "sinusoidal", "amplitude": 1.0, "wavevector": [1.0, 0.37, 0.113],
         "direction": [-1.0, 0.0, 0.0]},
        {"preset": "sinusoidal", "amplitude": float("nan"),
         "wavevector": [1.0, 0.0, 0.0], "direction": [0.0, 1.0, 0.0]},
    ], ids=["single_node_det_zero", "nan_amplitude"])
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
        result = run_cli(["run", path, "--out", str(out)])
        assert result.returncode == 1
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
        result = run_cli(["sweep", uniaxial, "--axis", "quad", "--values", "2", "2.5",
                          "--out", str(out)])
        assert result.returncode == 2
        assert "integer" in result.stderr and "Traceback" not in result.stderr
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
        assert "stvk_uniaxial" in catalog["bundled_scenarios"]

    def test_unknown_subcommand_is_usage_error(self):
        result = run_cli(["frobnicate"])
        assert result.returncode == 2
