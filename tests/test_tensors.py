import ast
import pathlib

import numpy as np
import pytest

from relpower import fields, geometry, materials
from relpower.configurational import point_state
from relpower.exceptions import NonFiniteValue, NotAntisymmetric
from relpower.fields import Motion
from relpower.materials import MODEL_CLASSES, constant_modulus
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


def _call_sites(names):
    """{name: {"module.qualname"}} of the functions in src/ that call each name."""
    sites = {name: set() for name in names}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id in sites):
                sites[child.func.id].add(".".join([module] + scope))
            visit(child, module, inner)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return sites


def test_finiteness_is_checked_only_where_values_enter_or_are_made():
    # entries: the preset constructors' parameters, the scenario's pivots and
    # the public cross_matrix; made values: point states, the volume sources,
    # and the values and gradients of virtual fields and potentials
    tables = (fields.MOTIONS, fields.FIELDS, materials.MODULI, materials.POTENTIALS,
              geometry.PARTS)
    entries = {f"{f.__module__.rpartition('.')[2]}.{f.__name__}"
               for table in tables for f in table.values()}
    entries |= {"geometry._spherical_part", "scenarios.Scenario._build",
                "tensors.cross_matrix"}
    made = {"configurational.point_state", "scenarios.VolumeNodeData.evaluate",
            "fields.VirtualField.__call__", "fields.VirtualField.grad",
            "materials.BodyForcePotential.__call__", "materials.BodyForcePotential.grad"}
    sites = _call_sites(("as_vector", "as_tensor", "check_finite"))
    assert sites["as_vector"] | sites["as_tensor"] <= entries
    assert sites["check_finite"] == made


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
    # y is NaN where x_1 > 0; the error names y and the first such point
    motion = Motion(lambda x: np.where(x[..., :1] > 0.0, np.nan, x),
                    gradient=lambda x: np.broadcast_to(np.eye(3), x.shape + (3,)))
    model = MODEL_CLASSES["stvk"](constant_modulus(1.0), constant_modulus(1.0))
    points = np.array([[-1.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 0.0, 0.0]])
    with pytest.raises(NonFiniteValue, match=r"^y is not finite at \[1\. 2\. 3\.\]$"):
        point_state(model, motion, points)
    with pytest.raises(ValueError):
        cross_matrix([1.0, np.inf, 0.0])
