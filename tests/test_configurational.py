import numpy as np
import pytest

from conftest import (configurational_force_residual, fd_copy,
                      standard_force_residual, torque_residuals)
from relpower import configurational as conf
from relpower.fields import (Motion, VirtualFieldPair, constant_field,
                             harmonic_motion, homogeneous_motion,
                             rotation_motion, shear_motion, sinusoidal_field,
                             sinusoidal_motion)
from relpower.materials import (affine_modulus, constant_modulus,
                                make_material, zero_potential)

STRETCH = np.diag([1.2, 1.0, 1.0])


def stvk_unit():
    return make_material("stvk", constant_modulus(1.0), constant_modulus(1.0))


def graded_stvk():
    return make_material("stvk", constant_modulus(1.0),
                         affine_modulus(1.0, [0.4, 0.0, 0.0]))


def neo_hookean():
    return make_material("neo_hookean", constant_modulus(1.2),
                         constant_modulus(0.8))


def quadratic(slope=None):
    mu = constant_modulus(1.0) if slope is None else affine_modulus(1.0, slope)
    return make_material("quadratic", constant_modulus(0.0), mu)


SINUSOIDAL = sinusoidal_motion(0.08, [2.0, 0.5, -0.7], [0.25, 0.85, 0.45])


class TestEshelbyStress:
    def test_zero_at_natural_state(self):
        np.testing.assert_allclose(
            conf.eshelby_stress(stvk_unit(), np.zeros(3), np.eye(3)),
            np.zeros((3, 3)))

    def test_uniaxial_hand_value(self):
        # e I - F^t P = diag(0.0726 - 0.9504, 0.0726 - 0.22, 0.0726 - 0.22)
        got = conf.eshelby_stress(stvk_unit(), np.zeros(3), STRETCH)
        np.testing.assert_allclose(
            got, np.diag([-0.8778, -0.1474, -0.1474]), atol=1e-9)

    def test_zero_at_rotated_natural_state(self):
        r = rotation_motion([0.1, 0.8, -0.5], 0.6).deformation_gradient(np.zeros(3))
        got = conf.eshelby_stress(neo_hookean(), np.zeros(3), r)
        np.testing.assert_allclose(got, np.zeros((3, 3)), atol=1e-13)

    def test_invariant_under_superposed_ambient_rotation(self, rng):
        # PP computed from R y(x) equals PP from y(x) for frame-indifferent models
        model = neo_hookean()
        motion = SINUSOIDAL
        r = rotation_motion([0.3, -0.4, 0.9], 0.7).deformation_gradient(np.zeros(3))
        rotated = Motion("rotated", lambda x: r @ motion.placement(x),
                         gradient=lambda x: r @ motion.gradient(x))
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            a = conf.eshelby_stress(model, x, motion.deformation_gradient(x))
            b = conf.eshelby_stress(model, x, rotated.deformation_gradient(x))
            np.testing.assert_allclose(b, a, atol=1e-10 * (1 + np.linalg.norm(a)))


class TestDivergences:
    def test_homogeneous_motion_has_zero_div(self, rng):
        x = rng.uniform(-0.4, 0.4, size=3)
        motion = homogeneous_motion(STRETCH)
        np.testing.assert_allclose(
            conf.div_first_pk(stvk_unit(), motion, x), np.zeros(3), atol=1e-15)

    def test_quadratic_harmonic_equilibrium(self, rng):
        # Div P = mu * laplacian(u) = 0 for the harmonic displacement
        motion = harmonic_motion(0.1)
        model = quadratic()
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            np.testing.assert_allclose(
                conf.div_first_pk(model, motion, x), np.zeros(3), atol=1e-14)
            fd = conf.div_first_pk(model, fd_copy(motion), x, step=1e-4)
            np.testing.assert_allclose(fd, np.zeros(3), atol=1e-6)

    def test_analytic_div_matches_fd(self, rng):
        model = graded_stvk()
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            exact = conf.div_first_pk(model, SINUSOIDAL, x)
            fd = conf.div_first_pk(model, fd_copy(SINUSOIDAL), x, step=1e-4)
            np.testing.assert_allclose(fd, exact, atol=1e-6, rtol=1e-6)
            exact_pp = conf.stress_divergences(model, SINUSOIDAL, x)[1]
            fd_pp = conf.stress_divergences(model, fd_copy(SINUSOIDAL), x, step=1e-4)[1]
            np.testing.assert_allclose(fd_pp, exact_pp, atol=1e-6, rtol=1e-6)

    def test_pullback_identity(self, rng):
        # Div PP + F^t Div P - de/dx|expl = 0, checked with both divergences
        # taken by finite differences so nothing is assumed
        model = graded_stvk()
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            f = SINUSOIDAL.deformation_gradient(x)
            div_p = conf.div_first_pk(model, fd_copy(SINUSOIDAL), x, step=1e-4)
            div_pp = conf.stress_divergences(model, fd_copy(SINUSOIDAL), x, step=1e-4)[1]
            residual = div_pp + f.T @ div_p - model.material_gradient(x, f)
            np.testing.assert_allclose(residual, np.zeros(3), atol=1e-6)


class TestResidualsAndClosure:
    def test_homogeneous_equilibrium_zero_residual(self, rng):
        motion = homogeneous_motion(STRETCH)
        zero = np.zeros(3)
        x = rng.uniform(-0.4, 0.4, size=3)
        np.testing.assert_allclose(
            standard_force_residual(stvk_unit(), motion, zero, x),
            np.zeros(3), atol=1e-15)

    def test_closure_zeroes_all_pointwise_balances(self, rng):
        model = graded_stvk()
        motion = SINUSOIDAL
        sources = conf.closure_sources(model, motion)
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            b, f, mu = sources(x)
            np.testing.assert_allclose(
                standard_force_residual(model, motion, b, x),
                np.zeros(3), atol=1e-12)
            np.testing.assert_allclose(
                configurational_force_residual(model, motion, b, f, x),
                np.zeros(3), atol=1e-12)
            first, second = torque_residuals(model, motion, mu, x)
            np.testing.assert_allclose(first, np.zeros(3), atol=1e-12)
            np.testing.assert_allclose(second, np.zeros(3), atol=1e-12)

    def test_closure_in_fd_mode(self, rng):
        model = graded_stvk()
        motion = fd_copy(SINUSOIDAL)
        x = rng.uniform(-0.4, 0.4, size=3)
        b, f, _ = conf.closure_sources(model, motion, step=1e-4)(x)
        res = configurational_force_residual(model, motion, b, f, x, step=1e-4)
        np.testing.assert_allclose(res, np.zeros(3), atol=1e-5)

    def test_graded_identity_motion_closure_is_zero(self, rng):
        # P = 0 and e = 0 at F = I, so every closure field vanishes
        from relpower.fields import identity_motion
        model = graded_stvk()
        x = rng.uniform(-0.4, 0.4, size=3)
        for source in conf.closure_sources(model, identity_motion())(x):
            np.testing.assert_allclose(source, np.zeros(3), atol=1e-14)

    def test_torque_residuals_frame_indifferent(self, rng):
        model = neo_hookean()
        zero = np.zeros(3)
        x = rng.uniform(-0.4, 0.4, size=3)
        first, _ = torque_residuals(model, SINUSOIDAL, zero, x)
        f = SINUSOIDAL.deformation_gradient(x)
        pft = model.stress(x, f) @ f.T
        assert np.linalg.norm(first) <= 1e-10 * max(1.0, np.linalg.norm(pft))

    def test_quadratic_shear_torque_hand_value(self):
        # P F^t = mu gamma (e1 (x) e2 + gamma e1 (x) e1); its skew part has
        # axial vector (0, 0, -mu gamma)
        gamma = 0.3
        model = quadratic()
        motion = shear_motion(gamma)
        zero = np.zeros(3)
        first, _ = torque_residuals(model, motion, zero, np.zeros(3))
        np.testing.assert_allclose(first, [0.0, 0.0, -gamma], atol=1e-14)


class TestNoether:
    def _pair_const(self, v, w):
        return VirtualFieldPair(v=constant_field(v), w=constant_field(w))

    def test_flux_reduces_when_v_equals_fw(self, rng):
        # v = F w makes the stress term vanish, leaving e w
        model = quadratic()
        motion = harmonic_motion(0.1)
        w = sinusoidal_field(0.5, [1.0, 0.4, -0.6], [0.3, 0.8, -0.2])
        from relpower.fields import VirtualField
        v = VirtualField("pushforward",
                         lambda x: motion.deformation_gradient(x) @ w(x))
        pair = VirtualFieldPair(v=v, w=w)
        x = rng.uniform(-0.4, 0.4, size=3)
        f = motion.deformation_gradient(x)
        flux = conf.noether_flux(model, motion, zero_potential(), pair, x)
        np.testing.assert_allclose(flux, model.energy(x, f) * w(x), atol=1e-14)

    def test_flux_reduces_when_w_zero(self, rng):
        model = quadratic()
        motion = harmonic_motion(0.1)
        pair = self._pair_const([0.3, -0.2, 0.5], [0.0, 0.0, 0.0])
        x = rng.uniform(-0.4, 0.4, size=3)
        f = motion.deformation_gradient(x)
        p = model.stress(x, f)
        flux = conf.noether_flux(model, motion, zero_potential(), pair, x)
        np.testing.assert_allclose(flux, p.T @ pair.v(x), atol=1e-14)

    def test_divergence_free_at_equilibrium(self, rng):
        # constant v, w and an equilibrium motion give Div F = 0
        model = quadratic()
        motion = harmonic_motion(0.1)
        pair = self._pair_const([0.3, -0.2, 0.5], [0.4, 0.1, -0.3])
        for _ in range(10):
            x = rng.uniform(-0.4, 0.4, size=3)
            div = conf.div_noether_flux(model, motion, zero_potential(), pair, x,
                                        step=1e-4)
            assert abs(div) <= 1e-6

    def test_conditions_trivial_cases(self, rng):
        model = quadratic()
        motion = harmonic_motion(0.1)
        pair = self._pair_const([0.3, -0.2, 0.5], [0.4, 0.1, -0.3])
        x = rng.uniform(-0.4, 0.4, size=3)
        first, second = conf.noether_condition_residuals(
            model, motion, zero_potential(), pair, x)
        assert first == 0.0
        assert second == 0.0

    def test_second_condition_graded_hand_value(self, rng):
        model = quadratic(slope=[0.0, 0.0, 0.4])
        motion = harmonic_motion(0.1)
        w = np.array([0.4, 0.1, -0.3])
        pair = self._pair_const([0.3, -0.2, 0.5], w)
        x = rng.uniform(-0.4, 0.4, size=3)
        _, second = conf.noether_condition_residuals(
            model, motion, zero_potential(), pair, x)
        f = motion.deformation_gradient(x)
        expected = float(model.material_gradient(x, f) @ w)
        assert second == pytest.approx(expected, abs=1e-14)
        assert abs(expected) > 0.0
