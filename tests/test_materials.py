import numpy as np
import pytest

from conftest import (NOT_FRAME_INDIFFERENT, fd_material_gradient, fd_stress,
                      graded_models, homogeneous_models, random_state)
from relpower.exceptions import NonPositiveJacobian
from relpower.fields import rotation_motion
from relpower.materials import (affine_modulus, constant_modulus,
                                linear_potential, make_material,
                                sinusoidal_modulus, zero_potential)

STRETCH = np.diag([1.2, 1.0, 1.0])


def energy(model, x, f):
    return model.response(x, f)[0]


def stress(model, x, f):
    return model.response(x, f)[1]


def material_gradient(model, x, f):
    return model.response(x, f)[2]


def stress_derivative(model, x, f, h):
    """dP/dF[H] assembled from the hooks, as ``div_stress`` assembles it."""
    da, db = model.stress_derivative_parts(f, model.kinematics(f), h)
    return model.lam.value(x) * da + model.mu.value(x) * db


def stress_material_gradient(model, x, f):
    """dP/dx at fixed F from the hooks, (3, 3, 3) with the x-component last."""
    pa, pb = model.stress_parts(f, model.kinematics(f))
    return (pa[:, :, None] * model.lam.gradient(x)
            + pb[:, :, None] * model.mu.gradient(x))


def stvk(lam=None, mu=None):
    return make_material("stvk", lam or constant_modulus(1.0),
                         mu or constant_modulus(1.0))


class TestSaintVenantKirchhoff:
    def test_natural_state_energy(self):
        assert energy(stvk(), np.zeros(3), np.eye(3)) == 0.0

    def test_uniaxial_energy_hand_value(self):
        # E = diag(0.22, 0, 0): e = 0.5*(0.22)^2 + (0.22)^2 = 0.0726
        assert energy(stvk(), np.zeros(3), STRETCH) == pytest.approx(0.0726, abs=1e-15)

    def test_uniaxial_stress_hand_value(self):
        expected = np.diag([0.792, 0.22, 0.22])
        np.testing.assert_allclose(stress(stvk(), np.zeros(3), STRETCH), expected,
                                   atol=1e-15)

    def test_graded_material_gradient_hand_value(self):
        # mu(x) = 1 + beta x_1 gives de/dx|expl = (beta tr(E^2), 0, 0)
        beta = 0.7
        model = stvk(mu=affine_modulus(1.0, [beta, 0.0, 0.0]))
        grad = material_gradient(model, np.zeros(3), STRETCH)
        np.testing.assert_allclose(grad, [beta * 0.0484, 0.0, 0.0], atol=1e-15)

    def test_zero_grading_reduces_to_homogeneous(self):
        model = stvk(mu=affine_modulus(1.0, [0.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            material_gradient(model, np.ones(3) * 0.3, STRETCH), np.zeros(3))


class TestNeoHookean:
    def test_rotated_natural_state(self):
        model = make_material("neo_hookean", constant_modulus(1.2),
                              constant_modulus(0.8))
        r = rotation_motion([0.2, 0.9, -0.4], 0.8).deformation_gradient(np.zeros(3))
        assert energy(model, np.zeros(3), r) == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(stress(model, np.zeros(3), np.eye(3)),
                                   np.zeros((3, 3)), atol=1e-15)

    def test_requires_positive_jacobian(self):
        model = make_material("neo_hookean", constant_modulus(1.2),
                              constant_modulus(0.8))
        with pytest.raises(NonPositiveJacobian):
            model.response(np.zeros(3), np.diag([1.0, 1.0, -1.0]))


class TestQuadratic:
    def test_stress_is_direct_derivative(self, rng):
        # e = mu/2 |F - I|^2 differentiates to mu (F - I)
        mu = 1.3
        model = make_material("quadratic", constant_modulus(0.0),
                              constant_modulus(mu))
        for _ in range(5):
            _, f = random_state(rng)
            np.testing.assert_allclose(stress(model, np.zeros(3), f),
                                       mu * (f - np.eye(3)), atol=1e-15)

    def test_not_frame_indifferent(self, rng):
        model = make_material("quadratic", constant_modulus(0.0),
                              constant_modulus(1.0))
        r = rotation_motion([0.0, 0.0, 1.0], 0.9).deformation_gradient(np.zeros(3))
        x, f = random_state(rng)
        assert abs(energy(model, x, r @ f) - energy(model, x, f)) > 1e-3


class TestDerivativeConsistency:
    def test_stress_matches_fd_of_energy(self, rng):
        for model in homogeneous_models() + graded_models():
            for _ in range(30):
                x, f = random_state(rng)
                p = stress(model, x, f)
                np.testing.assert_allclose(
                    p, fd_stress(model, x, f),
                    atol=1e-6 * (1.0 + np.linalg.norm(p)), rtol=0.0)

    def test_material_gradient_matches_fd(self, rng):
        for model in graded_models():
            for _ in range(30):
                x, f = random_state(rng)
                g = material_gradient(model, x, f)
                np.testing.assert_allclose(
                    g, fd_material_gradient(model, x, f),
                    atol=1e-6 * (1.0 + np.linalg.norm(g)), rtol=0.0)

    def test_stress_tangent_matches_fd_of_stress(self, rng):
        # the directional derivative dP/dF[H] along each basis tensor and
        # along a random direction
        h = 1e-6
        for model in homogeneous_models() + graded_models():
            x, f = random_state(rng)
            directions = list(np.eye(9).reshape(9, 3, 3)) + [rng.normal(size=(3, 3))]
            for direction in directions:
                fp = f + h * direction
                fm = f - h * direction
                fd = (stress(model, x, fp) - stress(model, x, fm)) / (2.0 * h)
                np.testing.assert_allclose(stress_derivative(model, x, f, direction), fd,
                                           rtol=2e-5, atol=1e-6)

    def test_stress_material_gradient_matches_fd(self, rng):
        h = 1e-6
        for model in graded_models():
            x, f = random_state(rng)
            grad = stress_material_gradient(model, x, f)
            for m in range(3):
                xp = x.copy()
                xm = x.copy()
                xp[m] += h
                xm[m] -= h
                fd = (stress(model, xp, f) - stress(model, xm, f)) / (2.0 * h)
                np.testing.assert_allclose(grad[:, :, m], fd, rtol=1e-5, atol=1e-8)

    def test_div_stress_matches_fd_of_stress(self, rng):
        # along F(x') = F + G (x' - x), whose dF/dx is G
        h = 1e-6
        for model in homogeneous_models() + graded_models():
            x, f = random_state(rng)
            g = 0.3 * rng.normal(size=(3, 3, 3))
            fd = np.zeros(3)
            for j in range(3):
                dx = h * np.eye(3)[j]
                fd += (stress(model, x + dx, f + g @ dx)
                       - stress(model, x - dx, f - g @ dx))[:, j] / (2.0 * h)
            np.testing.assert_allclose(model.div_stress(x, f, g), fd, rtol=1e-5, atol=1e-6)

    def test_homogeneous_flag_means_zero_material_gradient(self, rng):
        for model in homogeneous_models():
            assert model.homogeneous
            x, f = random_state(rng)
            np.testing.assert_allclose(material_gradient(model, x, f), np.zeros(3))


class TestFrameIndifference:
    def test_energy_invariant_under_superposed_rotation(self, rng):
        for model in homogeneous_models() + graded_models():
            if model.name in NOT_FRAME_INDIFFERENT:
                continue
            for _ in range(10):
                x, f = random_state(rng)
                axis = rng.normal(size=3)
                r = rotation_motion(axis, rng.uniform(0.0, 2.0))
                rot = r.deformation_gradient(np.zeros(3))
                e0 = energy(model, x, f)
                e1 = energy(model, x, rot @ f)
                assert abs(e1 - e0) <= 1e-10 * (1.0 + abs(e0))

    def test_frame_indifference_symmetrizes_pft(self, rng):
        for model in homogeneous_models() + graded_models():
            if model.name in NOT_FRAME_INDIFFERENT:
                continue
            for _ in range(10):
                x, f = random_state(rng)
                pft = stress(model, x, f) @ f.T
                assert (np.linalg.norm(pft - pft.T)
                        <= 1e-10 * max(1e-12, np.linalg.norm(pft)))

    def test_isotropy_and_homogeneity_symmetrize_ftp(self, rng):
        for model in homogeneous_models():
            if not (model.isotropic and model.homogeneous):
                continue
            for _ in range(10):
                x, f = random_state(rng)
                ftp = f.T @ stress(model, x, f)
                assert (np.linalg.norm(ftp - ftp.T)
                        <= 1e-10 * max(1e-12, np.linalg.norm(ftp)))


class TestBodyForcePotential:
    def test_zero_potential(self):
        pot = zero_potential()
        y = np.array([0.3, 0.1, -0.2])
        assert pot(y) == 0.0
        np.testing.assert_allclose(-pot.grad(y), np.zeros(3))

    def test_linear_potential_constant_force(self, rng):
        g = np.array([0.1, -0.4, 0.25])
        pot = linear_potential(g)
        y = rng.normal(size=3)
        np.testing.assert_allclose(-pot.grad(y), g, atol=1e-15)
        # analytic gradient agrees with finite differences of the value
        fd = np.empty(3)
        for j in range(3):
            yp, ym = y.copy(), y.copy()
            yp[j] += 1e-6
            ym[j] -= 1e-6
            fd[j] = (pot(yp) - pot(ym)) / 2e-6
        np.testing.assert_allclose(fd, pot.grad(y), rtol=1e-8, atol=1e-10)


def test_modulus_kinds(rng):
    x = rng.uniform(-0.5, 0.5, size=3)
    const = constant_modulus(2.0)
    assert const.value(x) == 2.0 and const.is_constant
    aff = affine_modulus(1.0, [0.4, 0.0, -0.2])
    assert aff.value(x) == pytest.approx(1.0 + 0.4 * x[0] - 0.2 * x[2])
    np.testing.assert_allclose(aff.gradient(x), [0.4, 0.0, -0.2])
    sin = sinusoidal_modulus(1.0, 0.3, [1.1, 0.7, -0.5])
    k = np.array([1.1, 0.7, -0.5])
    assert sin.value(x) == pytest.approx(1.0 + 0.3 * np.sin(k @ x))
    np.testing.assert_allclose(sin.gradient(x), 0.3 * np.cos(k @ x) * k)
