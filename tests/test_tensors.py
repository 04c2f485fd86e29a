import ast
import pathlib

import numpy as np
import pytest

from relpower.exceptions import NotAntisymmetric
from relpower.tensors import axial_vector, cross, cross_matrix, skew_part

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


# the shapes src/ broadcasts: a pivot offset, a stack of changes against the
# nodes, the identity against points (cross_matrix), and node against node
@pytest.mark.parametrize("a_shape,b_shape", [((3,), (7, 3)), ((4, 1, 3), (7, 3)),
                                             ((3, 3), (5, 1, 3)), ((7, 3), (7, 3))])
def test_cross_equals_np_cross_bit_for_bit(a_shape, b_shape, rng):
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    a.flat[::4] = 0.0   # exact zeros, where the sign of a zero product shows
    b.flat[::5] = -0.0
    got, want = cross(a, b), np.cross(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_src_calls_no_np_cross():
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "cross"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert not calls, f"np.cross in src/ (use tensors.cross): {', '.join(calls)}"


class TestSkewPart:
    def test_symmetric_input_gives_zero(self):
        t = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        np.testing.assert_allclose(skew_part(t), np.zeros((3, 3)), atol=0.0)

    def test_definition(self):
        t = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        expected = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(skew_part(t), expected, atol=0.0)

    def test_sym_skew_reconstruction(self, rng):
        for _ in range(20):
            t = rng.normal(size=(3, 3))
            np.testing.assert_allclose(skew_part(t) + 0.5 * (t + t.T), t, atol=1e-15)

    def test_result_is_antisymmetric(self, rng):
        w = skew_part(rng.normal(size=(3, 3)))
        np.testing.assert_allclose(w + w.T, np.zeros((3, 3)), atol=1e-16)


class TestAxialVector:
    def test_zero(self):
        np.testing.assert_allclose(axial_vector(np.zeros((3, 3))), np.zeros(3))

    def test_definition(self):
        a, b, c = 1.5, -0.7, 2.25
        w = np.zeros((3, 3))
        w[2, 1], w[1, 2] = a, -a
        w[0, 2], w[2, 0] = b, -b
        w[1, 0], w[0, 1] = c, -c
        np.testing.assert_allclose(axial_vector(w), [a, b, c], atol=0.0)

    def test_cross_matrix_roundtrip(self, rng):
        for _ in range(20):
            a = rng.normal(size=3)
            np.testing.assert_allclose(axial_vector(cross_matrix(a)), a, atol=1e-15)

    def test_action_matches_cross_product(self, rng):
        w = skew_part(rng.normal(size=(3, 3)))
        a = axial_vector(w)
        for _ in range(5):
            u = rng.normal(size=3)
            np.testing.assert_allclose(np.cross(a, u), w @ u, atol=1e-14)

    def test_raises_for_non_antisymmetric(self):
        with pytest.raises(NotAntisymmetric):
            axial_vector(np.eye(3))


def test_non_finite_inputs_rejected():
    bad = np.full((3, 3), np.nan)
    with pytest.raises(ValueError):
        skew_part(bad)
    with pytest.raises(ValueError):
        cross_matrix([1.0, np.inf, 0.0])
