import numpy as np
import pytest

from conftest import (configurational_force_residual, fd_copy, fd_divergence,
                      fd_stress_divergences, standard_force_residual, torque_residuals)
from relpower import configurational as conf
from relpower.fields import (Motion, harmonic_motion, homogeneous_motion,
                             rotation_motion, shear_motion, sinusoidal_field,
                             sinusoidal_motion)
from relpower.materials import (MODEL_CLASSES, affine_modulus, constant_modulus,
                                zero_potential)

STRETCH = np.diag([1.2, 1.0, 1.0])


def stvk_unit():
    return MODEL_CLASSES["stvk"](constant_modulus(1.0), constant_modulus(1.0))


def graded_stvk():
    return MODEL_CLASSES["stvk"](constant_modulus(1.0),
                                affine_modulus(1.0, [0.4, 0.0, 0.0]))


def neo_hookean():
    return MODEL_CLASSES["neo_hookean"](constant_modulus(1.2), constant_modulus(0.8))


def quadratic(slope=None):
    mu = constant_modulus(1.0) if slope is None else affine_modulus(1.0, slope)
    return MODEL_CLASSES["quadratic"](constant_modulus(0.0), mu)


SINUSOIDAL = sinusoidal_motion(0.08, [2.0, 0.5, -0.7], [0.25, 0.85, 0.45])


def div_first_pk(model, motion, x, step):
    """Div P of the point state at x."""
    return conf.stress_divergences(model, motion, x, step)[1]


def eshelby(model, motion, x):
    """PP of the point state at x."""
    return conf.point_state(model, motion, x).eshelby


def closure_at(model, motion, x, step=conf.DEFAULT_DIVERGENCE_STEP):
    """(b, f, mu) of the closure sources at x."""
    return conf.closure_sources(model, motion, x, step)[1]


class TestEshelbyStress:
    def test_zero_at_natural_state(self):
        np.testing.assert_allclose(
            eshelby(stvk_unit(), homogeneous_motion(np.eye(3)), np.zeros(3)),
            np.zeros((3, 3)))

    def test_uniaxial_hand_value(self):
        # e I - F^t P = diag(0.0726 - 0.9504, 0.0726 - 0.22, 0.0726 - 0.22)
        got = eshelby(stvk_unit(), homogeneous_motion(STRETCH), np.zeros(3))
        np.testing.assert_allclose(
            got, np.diag([-0.8778, -0.1474, -0.1474]), atol=1e-9)

    def test_zero_at_rotated_natural_state(self):
        rotation = rotation_motion([0.1, 0.8, -0.5], 0.6)
        got = eshelby(neo_hookean(), rotation, np.zeros(3))
        np.testing.assert_allclose(got, np.zeros((3, 3)), atol=1e-13)

    def test_invariant_under_superposed_ambient_rotation(self, rng):
        # PP computed from R y(x) equals PP from y(x) for frame-indifferent models
        model = neo_hookean()
        motion = SINUSOIDAL
        r = rotation_motion([0.3, -0.4, 0.9], 0.7).deformation_gradient(np.zeros(3))
        rotated = Motion(lambda x: r @ motion.y(x),
                         gradient=lambda x: r @ motion.gradient(x))
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            a = eshelby(model, motion, x)
            b = eshelby(model, rotated, x)
            np.testing.assert_allclose(b, a, atol=1e-10 * (1 + np.linalg.norm(a)))


class TestDivergences:
    def test_homogeneous_motion_has_zero_div(self, rng):
        x = rng.uniform(-0.4, 0.4, size=3)
        motion = homogeneous_motion(STRETCH)
        np.testing.assert_allclose(
            div_first_pk(stvk_unit(), motion, x, conf.DEFAULT_DIVERGENCE_STEP),
            np.zeros(3), atol=1e-15)

    def test_quadratic_harmonic_equilibrium(self, rng):
        # Div P = mu * laplacian(u) = 0 for the harmonic displacement
        motion = harmonic_motion(0.1)
        model = quadratic()
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            np.testing.assert_allclose(
                div_first_pk(model, motion, x, conf.DEFAULT_DIVERGENCE_STEP),
                np.zeros(3), atol=1e-14)
            fd = div_first_pk(model, fd_copy(motion), x, step=1e-4)
            np.testing.assert_allclose(fd, np.zeros(3), atol=1e-6)

    def test_analytic_div_matches_fd(self, rng):
        # fd mode differences F and takes the model's stress derivative; the
        # oracle differences P and PP, so a slip in that derivative shows
        model = graded_stvk()
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            exact = conf.stress_divergences(model, SINUSOIDAL, x,
                                            conf.DEFAULT_DIVERGENCE_STEP)[1:]
            fd = conf.stress_divergences(model, fd_copy(SINUSOIDAL), x, step=1e-4)[1:]
            oracle = fd_stress_divergences(model, fd_copy(SINUSOIDAL), x, step=1e-4)
            for got, want, ref in zip(fd, exact, oracle):
                np.testing.assert_allclose(got, want, atol=1e-6, rtol=1e-6)
                np.testing.assert_allclose(got, ref, atol=1e-6, rtol=1e-6)

    def test_pullback_identity(self, rng):
        # Div PP + F^t Div P - de/dx|expl = 0, checked with both divergences
        # taken as central differences of P and PP, so nothing is assumed, and
        # fd mode's divergences checked against them
        model = graded_stvk()
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            f = SINUSOIDAL.deformation_gradient(x)
            fd_motion = fd_copy(SINUSOIDAL)
            div_p, div_pp = fd_stress_divergences(model, fd_motion, x, step=1e-4)
            residual = div_pp + f.T @ div_p - model.response(x, f)[2]
            np.testing.assert_allclose(residual, np.zeros(3), atol=1e-6)
            _, fd_p, fd_pp = conf.stress_divergences(model, fd_motion, x, step=1e-4)
            np.testing.assert_allclose(fd_p, div_p, atol=1e-6)
            np.testing.assert_allclose(fd_pp, div_pp, atol=1e-6)


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
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            b, f, mu = closure_at(model, motion, x)
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
        b, f, _ = closure_at(model, motion, x, step=1e-4)
        res = configurational_force_residual(model, motion, b, f, x, step=1e-4)
        np.testing.assert_allclose(res, np.zeros(3), atol=1e-5)

    def test_graded_identity_motion_closure_is_zero(self, rng):
        # P = 0 and e = 0 at F = I, so every closure field vanishes
        from relpower.fields import identity_motion
        model = graded_stvk()
        x = rng.uniform(-0.4, 0.4, size=3)
        for source in closure_at(model, identity_motion(), x):
            np.testing.assert_allclose(source, np.zeros(3), atol=1e-14)

    def test_torque_residuals_frame_indifferent(self, rng):
        model = neo_hookean()
        zero = np.zeros(3)
        x = rng.uniform(-0.4, 0.4, size=3)
        first, _ = torque_residuals(model, SINUSOIDAL, zero, x)
        f = SINUSOIDAL.deformation_gradient(x)
        pft = model.response(x, f)[1] @ f.T
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
    def _constant_samples(self, v, w):
        """(v, grad v, w, grad w) of a constant pair at one point."""
        zero = np.zeros((3, 3))
        return np.asarray(v, float), zero, np.asarray(w, float), zero

    def test_flux_reduces_when_v_equals_fw(self, rng):
        # v = F w makes the stress term vanish, leaving e w
        model = quadratic()
        motion = harmonic_motion(0.1)
        w = sinusoidal_field(0.5, [1.0, 0.4, -0.6], [0.3, 0.8, -0.2])
        x = rng.uniform(-0.4, 0.4, size=3)
        f = motion.deformation_gradient(x)
        flux = conf.noether_flux(zero_potential(), conf.point_state(model, motion, x),
                                 f @ w(x), w(x))
        np.testing.assert_allclose(flux, model.response(x, f)[0] * w(x), atol=1e-14)

    def test_flux_reduces_when_w_zero(self, rng):
        model = quadratic()
        motion = harmonic_motion(0.1)
        v = np.array([0.3, -0.2, 0.5])
        x = rng.uniform(-0.4, 0.4, size=3)
        f = motion.deformation_gradient(x)
        p = model.response(x, f)[1]
        flux = conf.noether_flux(zero_potential(), conf.point_state(model, motion, x),
                                 v, np.zeros(3))
        np.testing.assert_allclose(flux, p.T @ v, atol=1e-14)

    def test_divergence_free_at_equilibrium(self, rng):
        # constant v, w and an equilibrium motion give Div F = 0
        model = quadratic()
        motion = harmonic_motion(0.1)
        v, w = np.array([0.3, -0.2, 0.5]), np.array([0.4, 0.1, -0.3])

        def flux(xx):
            state = conf.point_state(model, motion, xx)
            return conf.noether_flux(zero_potential(), state, v, w)
        for _ in range(10):
            x = rng.uniform(-0.4, 0.4, size=3)
            div = fd_divergence(flux, x, step=1e-4)
            assert abs(div) <= 1e-6

    def test_conditions_trivial_cases(self, rng):
        model = quadratic()
        motion = harmonic_motion(0.1)
        x = rng.uniform(-0.4, 0.4, size=3)
        first, second = conf.noether_condition_residuals(
            zero_potential(), conf.point_state(model, motion, x),
            *self._constant_samples([0.3, -0.2, 0.5], [0.4, 0.1, -0.3]))
        assert first == 0.0
        assert second == 0.0

    def test_second_condition_graded_hand_value(self, rng):
        model = quadratic(slope=[0.0, 0.0, 0.4])
        motion = harmonic_motion(0.1)
        w = np.array([0.4, 0.1, -0.3])
        x = rng.uniform(-0.4, 0.4, size=3)
        _, second = conf.noether_condition_residuals(
            zero_potential(), conf.point_state(model, motion, x),
            *self._constant_samples([0.3, -0.2, 0.5], w))
        f = motion.deformation_gradient(x)
        expected = float(model.response(x, f)[2] @ w)
        assert second == pytest.approx(expected, abs=1e-14)
        assert abs(expected) > 0.0
