import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sphere_surface
from relpower.exceptions import NonFiniteValue
from relpower.geometry import (ball_part, box_part, gauss_legendre, shell_part,
                               spherical_rule, weighted_fsum)


def volume_integral(part, integrand):
    """Integral of a scalar- or vector-valued integrand over the part."""
    return weighted_fsum(np.transpose([integrand(x) for x in part.volume_points]),
                         part.volume_weights)


def surface_integral(part, integrand):
    """Boundary integral; the integrand receives (point, outward normal)."""
    quad = part.surface
    return weighted_fsum(np.transpose([integrand(x, n) for x, n in
                                       zip(quad.points, quad.normals)]), quad.weights)


def area(part) -> float:
    return math.fsum(part.surface.weights)


def quadrature_volume(part) -> float:
    return math.fsum(part.volume_weights)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def sphere_monomial_integral(p: int, q: int, r: int) -> float:
    """Exact integral of x^p y^q z^r over the unit sphere."""
    if p % 2 or q % 2 or r % 2:
        return 0.0
    num = (double_factorial(p - 1) * double_factorial(q - 1)
           * double_factorial(r - 1))
    return 4.0 * math.pi * num / double_factorial(p + q + r + 1)


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        nodes, weights = gauss_legendre(4, 0.0, 1.0)
        for degree in range(8):  # exact through degree 2n-1 = 7
            approx = float(weights @ nodes ** degree)
            assert approx == pytest.approx(1.0 / (degree + 1), rel=1e-13)


class TestBoxPart:
    def test_weight_sum_is_volume(self):
        part = box_part([0.2, -0.1, 0.4], [0.5, 0.3, 0.7], volume_order=5)
        assert quadrature_volume(part) == pytest.approx(1.0 * 0.6 * 1.4, rel=1e-12)

    def test_constant_over_unit_box(self):
        part = box_part([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], volume_order=4)
        assert volume_integral(part, lambda x: 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_x1_squared_over_unit_box(self):
        # antiderivative oracle: int_0^1 x^2 dx = 1/3
        part = box_part([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], volume_order=4)
        got = volume_integral(part, lambda x: x[0] ** 2)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_odd_function_over_symmetric_box(self):
        part = box_part([0.0, 0.0, 0.0], [0.5, 0.5, 0.5], volume_order=6)
        got = volume_integral(part, lambda x: x[0] * x[1] ** 2 + x[2] ** 3)
        assert abs(got) <= 1e-14

    def test_normals_integrate_to_zero(self):
        part = box_part([0.1, 0.2, -0.3], [0.4, 0.5, 0.6], volume_order=4)
        total = surface_integral(part, lambda x, n: n)
        assert np.linalg.norm(total) <= 1e-10 * area(part)


@pytest.mark.parametrize("make_part,volume", [
    (lambda: box_part([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], volume_order=4), 1.0),
    (lambda: ball_part([0.1, 0.0, -0.2], 0.8), 4.0 / 3.0 * math.pi * 0.8 ** 3),
    (lambda: shell_part([0.1, 0.0, -0.2], 0.5, 0.9),
     4.0 / 3.0 * math.pi * (0.9 ** 3 - 0.5 ** 3)),
], ids=["box", "ball", "shell"])
def test_divergence_theorem_on_position(make_part, volume):
    # int x . n dA = 3 |part|; a sphere whose normals point the wrong way
    # (into a ball, out of a shell's cavity) breaks it
    got = surface_integral(make_part(), lambda x, n: float(x @ n))
    assert got == pytest.approx(3.0 * volume, rel=1e-13)


def test_weighted_fsum_matches_rowwise_fsum(rng):
    # the products are the same IEEE values and fsum rounds correctly, so
    # the vectorized form equals the row-by-row reference bit for bit
    values = rng.normal(size=(3, 50))
    weights = rng.uniform(size=50)
    expected = [math.fsum(v * w for v, w in zip(row, weights)) for row in values]
    assert list(weighted_fsum(values, weights)) == expected
    scalar = math.fsum(v * w for v, w in zip(values[0], weights))
    assert weighted_fsum(list(values[0]), weights) == scalar


# zero, or a magnitude from 1e-300 to 1e300 of either sign
FINITE = st.just(0.0) | st.floats(1e-300, 1e300).flatmap(lambda m: st.sampled_from((m, -m)))
LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray,
           "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2]}


@st.composite
def weighted_rows(draw):
    """(values, weights): a scalar row or vector rows, the node axis last, and their
    weights, both in one memory layout; half the draws repeat every node negated,
    so terms cancel."""
    n, width = draw(st.integers(1, 8)), draw(st.sampled_from((None, 1, 3)))
    shape = (n,) if width is None else (width, n)
    values = np.array(draw(st.lists(FINITE, min_size=math.prod(shape),
                                    max_size=math.prod(shape)))).reshape(shape)
    weights = np.array(draw(st.lists(FINITE, min_size=n, max_size=n)))
    if draw(st.booleans()):
        values = np.concatenate([values, -values], axis=-1)
        weights = np.concatenate([weights, weights])
    layout = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]
    return layout(values), layout(weights)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(weighted_rows())
def test_weighted_fsum_is_math_fsum_of_the_weighted_terms(rows):
    # bit for bit where the sums are finite, NonFiniteValue where math.fsum
    # overflows, meets inf - inf or gives a non-finite sum
    values, weights = rows
    columns = [values] if values.ndim == 1 else list(values)
    try:
        sums = [math.fsum(float(v) * float(w) for v, w in zip(column, weights))
                for column in columns]
    except (OverflowError, ValueError):
        sums = [math.inf]
    if not all(map(math.isfinite, sums)):
        with pytest.raises(NonFiniteValue), np.errstate(over="ignore"):
            weighted_fsum(values, weights)
        return
    got = weighted_fsum(values, weights)
    assert isinstance(got, float) == (values.ndim == 1)
    assert [float(s).hex() for s in np.atleast_1d(got)] == [s.hex() for s in sums]


@pytest.mark.parametrize("values,weights", [
    ([1e308, 1e308], [1.0, 1.0]),        # the sum overflows
    ([1e308, -1e308], [10.0, 10.0]),     # the terms are inf and -inf
    ([[1e308, 1e308], [0.0, 1.0]], [1.0, 1.0]),
])
def test_weighted_fsum_rejects_overflow_and_inf_minus_inf(values, weights):
    with pytest.raises(NonFiniteValue, match="integral is not finite"), \
            np.errstate(over="ignore"):
        weighted_fsum(np.array(values), np.array(weights))


class TestSphericalRules:
    @pytest.mark.parametrize("n_points,degree", [(6, 3), (14, 5), (26, 7)])
    def test_monomial_exactness(self, n_points, degree):
        dirs, wts = spherical_rule(n_points)
        for p in range(0, degree + 1):
            for q in range(0, degree + 1 - p):
                for r in range(0, degree + 1 - p - q):
                    approx = 4.0 * math.pi * float(
                        wts @ (dirs[:, 0] ** p * dirs[:, 1] ** q * dirs[:, 2] ** r))
                    exact = sphere_monomial_integral(p, q, r)
                    assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError):
            spherical_rule(12)


class TestBallAndShell:
    def test_ball_weight_sum(self):
        part = ball_part([0.1, 0.0, -0.2], 0.8)
        expected = 4.0 / 3.0 * math.pi * 0.8 ** 3
        assert quadrature_volume(part) == pytest.approx(expected, rel=1e-8)

    def test_unit_sphere_area(self):
        surface = sphere_surface([0.0, 0.0, 0.0], 1.0, 26)
        assert math.fsum(surface.weights) == pytest.approx(4.0 * math.pi, rel=1e-8)

    @pytest.mark.parametrize("rule", [6, 14, 26])
    def test_boundary_equals_the_sphere_oracle_bit_for_bit(self, rule):
        center = [0.3, -0.1, 0.7]
        ball = ball_part(center, 0.8, angular_points=rule).surface
        shell = shell_part(center, 0.5, 0.9, angular_points=rule).surface
        inner = sphere_surface(center, 0.5, rule)
        inner = dataclasses.replace(inner, normals=-inner.normals)
        for got, spheres in ((ball, [sphere_surface(center, 0.8, rule)]),
                             (shell, [sphere_surface(center, 0.9, rule), inner])):
            for name in ("points", "normals", "weights"):
                want = np.concatenate([getattr(s, name) for s in spheres])
                assert getattr(got, name).tobytes() == want.tobytes()

    def test_shell_weight_sum_and_volume(self):
        part = shell_part([0.0, 0.0, 0.0], 0.5, 0.9)
        expected = 4.0 / 3.0 * math.pi * (0.9 ** 3 - 0.5 ** 3)
        assert quadrature_volume(part) == pytest.approx(expected, rel=1e-8)

    def test_shell_normals_integrate_to_zero(self):
        part = shell_part([0.0, 0.0, 0.0], 0.5, 0.9)
        total = surface_integral(part, lambda x, n: n)
        assert np.linalg.norm(total) <= 1e-10 * area(part)

    def test_shell_radial_polynomial(self):
        # int_shell r^2 dx = 4 pi (r_out^5 - r_in^5) / 5
        part = shell_part([0.0, 0.0, 0.0], 0.5, 0.9)
        got = volume_integral(part, lambda x: float(x @ x))
        exact = 4.0 * math.pi * (0.9 ** 5 - 0.5 ** 5) / 5.0
        assert got == pytest.approx(exact, rel=1e-12)

    def test_vector_integrand_accumulation(self):
        part = ball_part([0.0, 0.0, 0.0], 1.0)
        got = volume_integral(part, lambda x: x)
        np.testing.assert_allclose(got, np.zeros(3), atol=1e-14)
