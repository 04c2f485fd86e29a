"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing is deferred to calibration.  The
bundled scenario set mirrors these checks, so ``relpower run --all`` is
the same gate in CLI form (criterion 10 runs it as a subprocess and
in-process, and compares the two output trees).
"""

import json
import os
import subprocess
import sys

import numpy as np

import relpower.functionals as fn
from conftest import (NOT_FRAME_INDIFFERENT, coefficient_norms, decompose,
                      fd_material_gradient, fd_stress, graded_models, homogeneous_models,
                      random_state)
from relpower import cli
from relpower.cli import sweep_scenario
from relpower.scenarios import Scenario, load_bundled_config
from relpower.tensors import skew_part


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_constitutive_oracle():
    rng = np.random.default_rng(101)
    worst_p = 0.0
    for model in homogeneous_models() + graded_models():
        for _ in range(100):
            x, f = random_state(rng)
            p = model.response(x, f)[1]
            err = np.max(np.abs(p - fd_stress(model, x, f)))
            worst_p = max(worst_p, err / (1.0 + np.linalg.norm(p)))
    worst_g = 0.0
    for model in graded_models():
        for _ in range(100):
            x, f = random_state(rng)
            g = model.response(x, f)[2]
            err = np.max(np.abs(g - fd_material_gradient(model, x, f)))
            worst_g = max(worst_g, err / (1.0 + np.linalg.norm(g)))
    report(1, "constitutive_oracle", worst_p <= 1e-6 and worst_g <= 1e-6,
           f"stress {worst_p:.2e}, material gradient {worst_g:.2e}")


def test_criterion_02_eshelby_fixture():
    scenario = Scenario(load_bundled_config("stvk_uniaxial"))
    diag = np.diag(scenario.state(scenario.part.center).eshelby)
    expected = np.array([-0.8778, -0.1474, -0.1474])
    err = float(np.max(np.abs(diag - expected)))
    report(2, "eshelby_fixture", err <= 1e-9, f"max abs error {err:.2e}")


def test_criterion_03_power_identity_and_convergence():
    details = []
    ok = True
    for name, tol in (("closure_shear_neohookean", 1e-9),
                      ("closure_sinusoidal_graded_stvk", 1e-9),
                      ("closure_shear_neohookean_fd", 1e-5),
                      ("closure_sinusoidal_graded_stvk_fd", 1e-5)):
        scenario = Scenario(load_bundled_config(name))
        power = fn.relative_power(scenario)
        err = abs(power.total - fn.inner_relative_power(scenario))
        bound = tol * (1.0 + abs(power.total))
        ok = ok and err <= bound
        details.append(f"{name} {err:.2e}")
    for name in ("closure_shear_neohookean", "closure_sinusoidal_graded_stvk"):
        config = load_bundled_config(name)
        _, rows = sweep_scenario(config, "quad", values=[4, 8])
        err4, err8 = rows[0][3], rows[1][3]
        floor = 1e-13
        converged = err8 <= floor or err4 / err8 >= 100.0
        ok = ok and converged
        details.append(f"{name} order 4->8 {err4:.1e}->{err8:.1e}")
    report(3, "power_identity", ok, "; ".join(details))


def test_criterion_04_invariance_on_closure_scenarios():
    details = []
    ok = True
    for name in ("stvk_uniaxial", "closure_shear_neohookean",
                 "closure_sinusoidal_graded_stvk"):
        scenario = Scenario(load_bundled_config(name))
        decomp = decompose(scenario)
        worst = max(coefficient_norms(decomp).values())
        ok = ok and worst <= 1e-8 * decomp.power_scale
        ok = ok and decomp.affine_residual <= 1e-10
        details.append(f"{name} coeff {worst:.2e} affine {decomp.affine_residual:.1e}")
    report(4, "invariance", ok, "; ".join(details))


def test_criterion_05_proof_grouping_match():
    scenario = Scenario(load_bundled_config("preset_nonequilibrium"))
    decomp = decompose(scenario)
    residuals = fn.integral_balance_residuals(scenario)
    ok = np.linalg.norm(residuals.force) > 0.1          # nontrivial match
    ok = ok and np.linalg.norm(residuals.torque) > 1e-3
    tol = 1e-10 * decomp.power_scale
    err_c_hat = np.linalg.norm(
        decomp.coefficients["ambient_translation"] - residuals.force)
    err_q_hat = np.linalg.norm(
        decomp.coefficients["ambient_rotation"] - residuals.torque)
    ok = ok and err_c_hat <= tol and err_q_hat <= tol

    factor_c = fn.grouping_factor(decomp.coefficients["material_translation"],
                                  residuals.configurational_force)
    factor_q = fn.grouping_factor(decomp.coefficients["material_rotation"],
                                  residuals.configurational_torque)
    ok = ok and abs(factor_c - 1.0) <= 1e-9 and abs(factor_q - 1.0) <= 1e-9

    # couple-free closure with a nonzero inhomogeneity moment carries the
    # documented constant factor 2 on the rotation grouping
    skewed = Scenario(load_bundled_config("closure_skewed_graded_stvk"))
    decomp2 = decompose(skewed)
    residuals2 = fn.integral_balance_residuals(skewed)
    factor2 = fn.grouping_factor(decomp2.coefficients["material_rotation"],
                                 residuals2.configurational_torque)
    ok = ok and np.linalg.norm(residuals2.configurational_torque) > 1e-5
    ok = ok and abs(factor2 - 2.0) <= 1e-6
    report(5, "proof_grouping", ok,
           f"preset factors ({factor_c:.9f}, {factor_q:.9f}), "
           f"closure rotation factor {factor2:.9f}")


def test_criterion_06_surface_independence():
    # both shells are bounded by the spheres of radii 0.5 and 0.9, at 26 points
    scenario = Scenario(load_bundled_config("surface_independence_quadratic"))
    result = fn.surface_independence_check(scenario)
    ok = result.difference_norm <= 1e-6 * result.flux_scale

    control = Scenario(load_bundled_config("surface_independence_graded_control"))
    broken = fn.surface_independence_check(control, allow_broken_hypotheses=True)
    expected = fn.material_gradient_integral(control)
    err = np.linalg.norm(broken.difference - expected)
    ok = ok and np.linalg.norm(expected) > 1e-3
    ok = ok and err <= 1e-5 * np.linalg.norm(expected)
    report(6, "surface_independence", ok,
           f"difference {result.difference_norm:.2e}, control error {err:.2e}")


def test_criterion_07_noether():
    scenario = Scenario(load_bundled_config("noether_harmonic"))
    rep = fn.noether_point_checks(scenario, n_points=100)
    ok = (rep.max_first_condition <= 1e-10
          and rep.max_second_condition <= 1e-10
          and rep.max_flux_divergence <= 1e-6)
    graded = Scenario(load_bundled_config("noether_graded"))
    rep2 = fn.noether_point_checks(graded, n_points=100)
    ok = ok and rep2.max_second_condition > 1e-4
    ok = ok and rep2.max_second_condition_mismatch <= 1e-8
    report(7, "noether", ok,
           f"conditions ({rep.max_first_condition:.1e}, "
           f"{rep.max_second_condition:.1e}), div {rep.max_flux_divergence:.2e}, "
           f"graded mismatch {rep2.max_second_condition_mismatch:.2e}")


def test_criterion_08_torque_identities():
    rng = np.random.default_rng(108)
    worst_pft = 0.0
    for model in homogeneous_models() + graded_models():
        if model.name in NOT_FRAME_INDIFFERENT:
            continue
        for _ in range(100):
            x, f = random_state(rng)
            pft = model.response(x, f)[1] @ f.T
            worst_pft = max(worst_pft,
                            np.linalg.norm(skew_part(pft))
                            / max(1e-300, np.linalg.norm(pft)))
    worst_pp = 0.0
    for model in homogeneous_models():
        if not (model.isotropic and model.homogeneous):
            continue
        for _ in range(100):
            x, f = random_state(rng)
            e, p, _ = model.response(x, f)
            pp = e * np.eye(3) - f.T @ p
            worst_pp = max(worst_pp,
                           np.linalg.norm(skew_part(pp))
                           / max(1e-300, np.linalg.norm(pp)))
    report(8, "torque_identities", worst_pft <= 1e-10 and worst_pp <= 1e-10,
           f"Skw(PF^t) {worst_pft:.2e}, Skw(PP) {worst_pp:.2e}")


def test_criterion_09_standard_power_degeneracy():
    scenario = Scenario(load_bundled_config("standard_power_degeneracy"))
    power = fn.relative_power(scenario)  # the bundled pair already has w = 0
    reference = fn.standard_external_power(scenario)
    err = abs(power.total - reference) / max(1.0, abs(reference))
    ok = power.disarrangement == 0.0 and err <= 1e-12
    report(9, "standard_power_degeneracy", ok, f"relative difference {err:.2e}")


def _tree(root: str) -> dict:
    """Relative path -> bytes of every file under ``root``."""
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


def test_criterion_10_cli_contract(tmp_path, capsys):
    # one run in a subprocess for the exit code, one in-process at the same
    # time; the two interpreters have different hash seeds, so
    # nondeterminism still shows in the byte comparison
    run = [sys.executable, "-m", "relpower"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    proc = subprocess.Popen(run + ["run", "--all", "--out", out1],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        second = cli.main(["run", "--all", "--out", out2])
    finally:
        first = proc.wait(timeout=600)
    capsys.readouterr()
    ok = first == 0 and second == 0

    tree1, tree2 = _tree(out1), _tree(out2)
    identical = bool(tree1) and tree1 == tree2
    ok = ok and identical

    bad = load_bundled_config("stvk_uniaxial")
    bad["geometry"]["kind"] = "dodecahedron"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    out3 = tmp_path / "c"
    invalid = subprocess.run(run + ["run", str(bad_path), "--out", str(out3)],
                             capture_output=True, text=True)
    ok = ok and invalid.returncode == 2 and not out3.exists()
    report(10, "cli_contract", ok,
           f"exit codes ({first}, {second}, "
           f"{invalid.returncode}), byte-identical {identical}")
