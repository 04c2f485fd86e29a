import ast
import pathlib

import numpy as np
import pytest

from relpower import fields, geometry, materials
from relpower.configurational import point_state
from relpower.exceptions import NonFiniteValue
from relpower.fields import Motion
from relpower.materials import MODEL_CLASSES, constant_modulus
from relpower.tensors import axial_vector, cofactor, cross, cross_matrix, det, skew_part

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


# the shapes src/ broadcasts: a rotation rate against the points, a stack of
# changes against the nodes, the identity against a vector (cross_matrix), and
# node against node
@pytest.mark.parametrize("a_shape,b_shape,axis", [((3,), (3, 7), 0), ((4, 3, 1), (3, 7), -2),
                                                  ((3, 3), (1, 3), -1), ((3, 7), (3, 7), -2)])
def test_cross_equals_np_cross_bit_for_bit(a_shape, b_shape, axis, rng):
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    a.flat[::4] = 0.0   # exact zeros, where the sign of a zero product shows
    b.flat[::5] = -0.0
    got, want = cross(a, b, axis=axis), np.cross(a, b, axisa=axis, axisb=axis, axisc=axis)
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


def _layout_names(node):
    """The names a node reads or imports that reorder axes."""
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


def _layout_sites(tree, module, scope=()):
    """(site, name) of every axis-reordering name in the tree, site ``module.scope``."""
    for child in ast.iter_child_nodes(tree):
        inner = scope + (child.name,) if isinstance(
            child, (ast.ClassDef, ast.FunctionDef)) else scope
        for name in _layout_names(child):
            if name in ("component_major", "matvec", "moveaxis", "T", "transpose"):
                yield ".".join((module,) + scope), name
        yield from _layout_sites(child, module, inner)


def test_constitutive_modules_contract_over_the_node_axis_only():
    # the response and the point state take component-major stacks: a batched
    # matmul there would read them strided
    found = [f"{name}:{node.lineno}"
             for name in ("materials.py", "configurational.py")
             for node in ast.walk(ast.parse((SRC / "relpower" / name).read_text(
                 encoding="utf-8")))
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.MatMult)]
    assert not found, f"@ in the constitutive modules: {found}"
    # one layout from the point on: no module converts between two, and the
    # part's (n, 3) tables are transposed only where node data is built
    sites = [(site, name) for path in sorted(SRC.rglob("*.py"))
             for site, name in _layout_sites(ast.parse(path.read_text(encoding="utf-8")),
                                             path.stem)]
    assert not [s for s in sites if s[1] in ("component_major", "matvec", "moveaxis")], sites
    assert {site for site, _ in sites} <= {"scenarios._NodeData.transposed"}, sites


EPS = np.finfo(float).eps


def _kernel_stacks(rng):
    """(n, 3, 3) stacks, row-major as ``np.linalg`` takes them: random,
    near-singular (det about 1e-9 of the scale) and exactly singular (small
    integers, row 2 = row 0 - 2 row 1)."""
    random = rng.normal(size=(500, 3, 3))
    near = random.copy()
    near[:, 2] = near[:, 0] - 0.5 * near[:, 1] + 1e-9 * rng.normal(size=(500, 3))
    singular = rng.integers(-9, 10, size=(500, 3, 3)).astype(float)
    singular[:, 2] = singular[:, 0] - 2.0 * singular[:, 1]
    return {"random": random, "near_singular": near, "singular": singular}


def _minors(t):
    """The signed 2x2 minors of every tensor by ``np.linalg.det``: cof T."""
    out = np.empty_like(t)
    for i in range(3):
        for j in range(3):
            sub = np.delete(np.delete(t, i, axis=-2), j, axis=-1)
            out[..., i, j] = (-1) ** (i + j) * np.linalg.det(sub)
    return out


def _node_last(t):
    """The (n, 3, 3) stack t as the kernels take it, (3, 3, n)."""
    return np.ascontiguousarray(np.moveaxis(t, 0, -1))


@pytest.mark.parametrize("kind", ["random", "near_singular", "singular"])
def test_det_and_cofactor_match_numpy(kind, rng):
    # both errors are within 8 eps of the Hadamard bound |det T| <= prod_i |row_i|
    # (det), and of |T|_F^2 (each 2x2 minor), whatever the conditioning
    t = _kernel_stacks(rng)[kind]
    rows = np.prod(np.linalg.norm(t, axis=-1), axis=-1)
    assert np.all(np.abs(det(_node_last(t)) - np.linalg.det(t)) <= 8 * EPS * rows)
    frobenius = np.sum(t * t, axis=(-2, -1))
    assert np.all(np.abs(cofactor(_node_last(t)) - _node_last(_minors(t)))
                  <= 8 * EPS * frobenius)


def test_kernels_are_exact_on_exactly_singular_stacks(rng):
    # small integers: every product and difference is exact, so det T is 0
    # and T cof T^t = det T I vanishes exactly, where LAPACK's LU may round
    t = _kernel_stacks(rng)["singular"]
    cof = cofactor(_node_last(t))
    assert np.all(det(_node_last(t)) == 0.0)
    np.testing.assert_array_equal(cof, _node_last(np.round(_minors(t))))
    np.testing.assert_array_equal(np.einsum("ikn,jkn->ijn", _node_last(t), cof),
                                  np.zeros((3, 3, len(t))))


def test_cofactor_over_det_is_the_inverse_transpose(rng):
    # F^-t = cof F / det F, within 8 eps cond(F) of LAPACK's inverse
    t = _kernel_stacks(rng)["random"]
    t_cm = _node_last(t)
    got = np.moveaxis(np.swapaxes(cofactor(t_cm) / det(t_cm), 0, 1), -1, 0)
    want = np.linalg.inv(t)
    bound = 8 * EPS * np.linalg.cond(t) * np.linalg.norm(want, axis=(-2, -1))
    assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= bound)


@pytest.mark.parametrize("shape", [(3, 3), (3, 3, 1), (3, 3, 2, 5)])
def test_kernels_keep_the_node_axes(shape, rng):
    t = rng.normal(size=shape)
    assert det(t).shape == shape[2:]
    assert cofactor(t).shape == shape
    # a constant F broadcast over the nodes, as the homogeneous motions give it
    stacked = np.broadcast_to(t[..., None], shape + (4,))
    np.testing.assert_array_equal(det(stacked), np.broadcast_to(det(t)[..., None],
                                                                shape[2:] + (4,)))
    np.testing.assert_array_equal(cofactor(stacked), np.broadcast_to(cofactor(t)[..., None],
                                                                     shape + (4,)))
    # the determinant of a row-major stack reads its component-major view
    rows = np.moveaxis(t, (0, 1), (-2, -1))
    np.testing.assert_array_equal(det(np.moveaxis(rows, (-2, -1), (0, 1))), det(t))


def test_src_calls_no_np_linalg_det_or_inv():
    def linalg_call(node):
        return (isinstance(node, ast.Attribute) and node.attr in ("det", "inv")
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")

    def linalg_import(node):
        return (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                and any(alias.name in ("det", "inv") for alias in node.names))

    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if linalg_call(node) or linalg_import(node)]
    assert not calls, ("np.linalg.det or inv in src/ (use tensors.det and "
                       f"tensors.cofactor): {', '.join(calls)}")


def _call_sites(names):
    """{name: {"module.qualname"}} of the functions in src/ that call each name,
    as ``name(...)`` or ``module.name(...)``."""
    sites = {name: set() for name in names}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in sites:
                    sites[name].add(".".join([module] + scope))
            visit(child, module, inner)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return sites


def test_finiteness_is_checked_only_where_values_enter_or_are_made():
    # entries: the preset constructors' parameters, the scenario's pivots and
    # the public cross_matrix; made values: point states, the node rows of the
    # sources and of the pair where node data takes them, and the values and
    # gradients of potentials
    tables = (fields.MOTIONS, fields.FIELDS, materials.MODULI, materials.POTENTIALS,
              geometry.PARTS)
    entries = {f"{f.__module__.rpartition('.')[2]}.{f.__name__}"
               for table in tables for f in table.values()}
    entries |= {"geometry._spherical_part", "scenarios.Scenario._build",
                "tensors.cross_matrix"}
    made = {"configurational.point_state",
            "scenarios.VolumeNodeData.__init__", "scenarios.SurfaceNodeData.__init__",
            "materials.BodyForcePotential.__call__", "materials.BodyForcePotential.grad"}
    sites = _call_sites(("as_vector", "as_tensor", "check_finite"))
    assert sites["as_vector"] | sites["as_tensor"] <= entries
    assert sites["check_finite"] == made


def test_only_placements_fields_and_f_are_differenced():
    # the one stencil takes F from y, grad v and grad w from v and w, and dF/dx
    # from F; no stress or flux is differenced, so Div P and Div PP follow from
    # dF/dx through the model's own stress derivative in both derivative modes
    assert _call_sites(("central_difference",))["central_difference"] == {
        "fields.Motion.deformation_gradient", "fields.VirtualField.grad",
        "configurational.stress_divergences"}


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


def test_non_finite_inputs_rejected():
    # y is NaN where x_1 > 0; the error names y and the first such point
    motion = Motion(lambda x: np.where(x[:1] > 0.0, np.nan, x),
                    gradient=lambda x: np.broadcast_to(np.eye(3)[..., None], (3,) + x.shape))
    model = MODEL_CLASSES["stvk"](constant_modulus(1.0), constant_modulus(1.0))
    points = np.array([[-1.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 0.0, 0.0]]).T
    with pytest.raises(NonFiniteValue, match=r"^y is not finite at \[1\. 2\. 3\.\]$"):
        point_state(model, motion, points)
    with pytest.raises(ValueError):
        cross_matrix([1.0, np.inf, 0.0])
