from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fd_copy
from relpower.exceptions import NonPositiveJacobian
from relpower.fields import (VirtualFieldPair, central_difference,
                             constant_field, curl_from_gradient, harmonic_motion,
                             homogeneous_motion, identity_motion, linear_field,
                             rigid_field, rotation_motion, shear_motion,
                             sinusoidal_field, sinusoidal_motion)
from relpower.functionals import GENERATOR_SLOTS, PairSamples
from relpower.tensors import cross_matrix


def generators(**slots) -> np.ndarray:
    """One observer change, (4, 3) in ``GENERATOR_SLOTS`` order, zero where unnamed."""
    return np.array([slots.get(slot, np.zeros(3)) for slot in GENERATOR_SLOTS], float)


def shifted_at(pair, motion, change, x, y0=(0.0, 0.0, 0.0)) -> PairSamples:
    """The pair sampled at the single node x and seen through the generators
    ``change`` about pivots y0 and x0 = 0."""
    x = np.asarray(x, float)
    nodes = SimpleNamespace(y=motion.y(x)[None], points=x[None])
    scenario = SimpleNamespace(volume_data=nodes, surface_data=nodes,
                               y0=np.asarray(y0, float), x0=np.zeros(3))
    samples = PairSamples(v_volume=pair.v(x)[None], w_volume=pair.w(x)[None],
                          curl_w_volume=pair.w.curl(x)[None],
                          v_surface=pair.v(x)[None], w_surface=pair.w(x)[None])
    return samples.shifted(change, scenario)


def ambient_change(pair, motion, change, x, y0=(0.0, 0.0, 0.0)) -> np.ndarray:
    """v*(x), checked to agree between the volume and surface samples."""
    out = shifted_at(pair, motion, change, x, y0)
    np.testing.assert_array_equal(out.v_surface, out.v_volume)
    return out.v_volume[0]


def material_change(pair, change, x) -> np.ndarray:
    """w*(x), checked to agree between the volume and surface samples."""
    out = shifted_at(pair, identity_motion(), change, x)
    np.testing.assert_array_equal(out.w_surface, out.w_volume)
    return out.w_volume[0]


def all_motion_presets():
    return [
        identity_motion(),
        homogeneous_motion(np.diag([1.2, 1.0, 1.0])),
        rotation_motion([0.3, -0.5, 0.8], 0.7),
        shear_motion(0.3),
        harmonic_motion(0.1),
        sinusoidal_motion(0.08, [2.0, 0.5, -0.7], [0.25, 0.85, 0.45]),
    ]


class TestDeformationGradient:
    def test_identity(self):
        m = identity_motion()
        x = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(m.deformation_gradient(x), np.eye(3))

    def test_homogeneous_stretch(self):
        m = homogeneous_motion(np.diag([1.2, 1.0, 1.0]))
        np.testing.assert_allclose(
            m.deformation_gradient(np.array([0.4, -0.2, 0.1])), np.diag([1.2, 1.0, 1.0]))

    def test_small_sinusoidal_hand_value(self):
        # y = x + 0.01 sin(x_1) e_2, so F(0) = I + 0.01 e_2 (x) e_1
        m = sinusoidal_motion(0.01, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        expected = np.eye(3)
        expected[1, 0] = 0.01
        np.testing.assert_allclose(m.deformation_gradient(np.zeros(3)), expected,
                                   atol=1e-15)

    def test_analytic_matches_fd(self, rng):
        for motion in all_motion_presets():
            for _ in range(15):
                x = rng.uniform(-0.5, 0.5, size=3)
                analytic = motion.deformation_gradient(x)
                fd = fd_copy(motion).deformation_gradient(x)
                np.testing.assert_allclose(fd, analytic, rtol=1e-6, atol=1e-8)

    def test_second_gradient_matches_fd(self, rng):
        for motion in (harmonic_motion(0.1),
                       sinusoidal_motion(0.08, [2.0, 0.5, -0.7], [0.25, 0.85, 0.45])):
            for _ in range(5):
                x = rng.uniform(-0.5, 0.5, size=3)
                analytic = motion.second_gradient(x)
                fd = central_difference(motion.gradient, x, 1e-5)
                np.testing.assert_allclose(fd, analytic, rtol=1e-5, atol=1e-6)

    def test_non_positive_jacobian_raises(self):
        m = homogeneous_motion(np.diag([-1.0, 1.0, 1.0]))
        with pytest.raises(NonPositiveJacobian):
            m.deformation_gradient(np.zeros(3))


def test_central_difference_matches_loop_reference(rng):
    # same arithmetic as a per-component loop, so the results are identical
    motion = sinusoidal_motion(0.08, [2.0, 0.5, -0.7], [0.25, 0.85, 0.45])
    x, h = rng.uniform(-0.5, 0.5, size=3), 1e-5
    for fn in (motion.y, motion.gradient):
        reference = np.empty(np.shape(fn(x)) + (3,))
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            reference[..., j] = (fn(xp) - fn(xm)) / (2.0 * h)
        np.testing.assert_array_equal(central_difference(fn, x, h), reference)


class TestVirtualFieldPresets:
    def all_presets(self):
        from relpower.fields import affine_field
        return [
            constant_field([0.3, -0.2, 0.5]),
            rigid_field([0.1, 0.2, -0.3], [0.4, -0.7, 0.2], [0.1, 0.1, 0.1]),
            linear_field([[0.2, 0.1, 0.0], [0.0, -0.3, 0.1], [0.1, 0.0, 0.4]]),
            affine_field([0.3, -0.1, 0.2],
                         [[0.1, -0.2, 0.0], [0.3, 0.0, 0.1], [0.0, 0.1, -0.2]],
                         [0.05, 0.0, -0.05]),
            sinusoidal_field(0.6, [1.2, -0.7, 0.4], [0.3, 0.8, -0.5]),
        ]

    def test_analytic_gradients_match_fd(self, rng):
        for field in self.all_presets():
            for _ in range(20):
                x = rng.uniform(-0.5, 0.5, size=3)
                analytic = field.grad(x)
                fd = fd_copy(field).grad(x)
                np.testing.assert_allclose(fd, analytic, rtol=1e-6, atol=1e-9)


class TestObserverChanges:
    def _pair(self, v_value, w_value):
        return VirtualFieldPair(v=constant_field(v_value), w=constant_field(w_value))

    def test_identity_ambient_change(self):
        pair = self._pair([0.4, -0.1, 0.2], [0.0, 0.0, 0.0])
        change = generators()
        out = ambient_change(pair, identity_motion(), change, [0.1, 0.2, 0.3])
        np.testing.assert_allclose(out, [0.4, -0.1, 0.2])

    def test_ambient_rotation_cross_product(self):
        # v = 0, q_hat = e3, y - y0 = e1 -> e2
        pair = self._pair([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        change = generators(ambient_rotation=[0.0, 0.0, 1.0])
        out = ambient_change(pair, identity_motion(), change, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    def test_ambient_hand_value(self):
        # c_hat=(1,2,3), q_hat=e1, y-y0=e2, v=e3 -> (1,2,5)
        pair = self._pair([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        change = generators(ambient_translation=[1.0, 2.0, 3.0],
                            ambient_rotation=[1.0, 0.0, 0.0])
        out = ambient_change(pair, identity_motion(), change, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 2.0, 5.0], atol=1e-15)

    def test_identity_material_change(self):
        pair = self._pair([0.0, 0.0, 0.0], [0.7, 0.1, -0.2])
        out = material_change(pair, generators(), [0.3, 0.1, 0.0])
        np.testing.assert_allclose(out, [0.7, 0.1, -0.2])

    def test_material_rotation_cross_product(self):
        pair = self._pair([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        change = generators(material_rotation=[1.0, 0.0, 0.0])
        out = material_change(pair, change, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0], atol=1e-15)

    def test_material_hand_value(self):
        # c=e1, q=e3, x-x0=e1, w=-e2 -> e1 + e2 - e2 = e1
        pair = self._pair([0.0, 0.0, 0.0], [0.0, -1.0, 0.0])
        change = generators(material_translation=[1.0, 0.0, 0.0],
                            material_rotation=[0.0, 0.0, 1.0])
        out = material_change(pair, change, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-15)

    def test_affine_in_generators(self, rng):
        pair = self._pair([0.2, -0.4, 0.1], [0.3, 0.0, -0.5])
        motion = shear_motion(0.3)
        x = np.array([0.2, -0.1, 0.3])
        g1 = rng.normal(size=3)
        g2 = rng.normal(size=3)
        base = ambient_change(pair, motion, generators(), x)
        d1 = ambient_change(
            pair, motion, generators(ambient_rotation=g1), x) - base
        d2 = ambient_change(
            pair, motion, generators(ambient_rotation=g2), x) - base
        both = ambient_change(
            pair, motion, generators(ambient_rotation=g1 + g2), x) - base
        np.testing.assert_allclose(both, d1 + d2, atol=1e-14)


class TestCurl:
    def test_constant_field(self):
        f = constant_field([0.3, -0.2, 0.5])
        np.testing.assert_allclose(f.curl(np.array([0.1, 0.0, -0.2])), np.zeros(3))

    def test_rigid_field_curl_is_twice_rotation(self, rng):
        q = np.array([0.4, -0.7, 0.2])
        f = rigid_field([0.0, 0.0, 0.0], q, [0.1, 0.1, 0.1])
        x = rng.uniform(-0.5, 0.5, size=3)
        np.testing.assert_allclose(f.curl(x), 2.0 * q, atol=1e-14)
        # finite-difference oracle for the same identity
        np.testing.assert_allclose(fd_copy(f).curl(x), 2.0 * q,
                                   rtol=1e-8, atol=1e-9)

    def test_linear_field_hand_value(self):
        # w = (x_2, 0, 0) has curl (0, 0, -1)
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        f = linear_field(a)
        np.testing.assert_allclose(f.curl(np.array([0.2, 0.4, -0.1])), [0.0, 0.0, -1.0],
                                   atol=1e-15)


class TestShiftedPair:
    def test_rigid_ambient_gradient_chain_rule(self, rng):
        # grad of x -> q_hat x (y(x) - y0) is (q_hat x) F, checked by FD
        motion = sinusoidal_motion(0.08, [2.0, 0.5, -0.7], [0.25, 0.85, 0.45])
        pair = VirtualFieldPair(v=constant_field([0.0, 0.0, 0.0]),
                                w=constant_field([0.0, 0.0, 0.0]))
        q_hat = np.array([0.3, -0.2, 0.6])
        change = generators(ambient_rotation=q_hat)
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            expected = cross_matrix(q_hat) @ motion.deformation_gradient(x)
            fd = central_difference(
                lambda xx: ambient_change(pair, motion, change, xx, [0.1, 0.0, 0.2]),
                x, 1e-6)
            np.testing.assert_allclose(fd, expected, rtol=1e-6, atol=1e-8)

    def test_material_curl_shift(self, rng):
        # the shifted curl samples are curl w + 2 q, and match the FD curl of w*
        w = sinusoidal_field(0.5, [1.0, 0.6, -0.8], [-0.4, 0.8, 0.3])
        pair = VirtualFieldPair(v=constant_field([0.0, 0.0, 0.0]), w=w)
        q = np.array([0.2, 0.5, -0.3])
        change = generators(material_rotation=q)
        x = rng.uniform(-0.4, 0.4, size=3)
        curl = shifted_at(pair, identity_motion(), change, x).curl_w_volume[0]
        np.testing.assert_allclose(curl, w.curl(x) + 2.0 * q, atol=1e-14)
        fd_grad = central_difference(lambda xx: material_change(pair, change, xx),
                                     x, 1e-6)
        np.testing.assert_allclose(curl_from_gradient(fd_grad), curl,
                                   rtol=1e-8, atol=1e-9)
