"""Whole-scenario Euclidean actions on the bundled closure scenarios.

Relation 1, an ambient rigid motion y* = Q y + c with v* = Q v, b* = Q b
and y0* = Q y0 + c, leaves P_rel, P_inn, R3 and R4 unchanged for a
frame-indifferent material and turns R1 and R2 into Q R1 and Q R2.
Relation 2, a material translation of the whole setup (part, motion,
fields, preset sources, moduli and x0 moved by d), leaves every report
value unchanged.  Relation 3, a material rotation of the whole setup (the
part's points and normals, y*(X) = y(Q^t X), v*(X) = v(Q^t X), w*(X) =
Q w(Q^t X), b*(X) = b(Q^t X), f*(X) = Q f(Q^t X), mu*(X) = Q mu(Q^t X),
the moduli m(Q^t X) and x0* = Q x0), leaves P_rel, P_inn, R1 and R2
unchanged for an isotropic material and turns R3 and R4 into Q R3 and
Q R4.  All three rebuild the node data from the moved objects, closure
sources included, so a slip of F for F^t in the constitutive kernels,
which the per-node oracle shares, shows here.  On the closure scenarios
R1..R4 are round-off; the preset-source scenario, whose residuals are of
order one, is where a residual left unrotated fails.
"""

import dataclasses

import numpy as np
import pytest

from relpower import functionals as fn
from relpower.fields import rotation_motion
from relpower.geometry import BodyPart, SurfaceQuadrature
from relpower.scenarios import (Scenario, SurfaceNodeData, VolumeNodeData,
                                load_bundled_config)
from relpower.tensors import at_points

Q = rotation_motion([0.3, -0.5, 0.8], 0.7).deformation_gradient(np.zeros(3))
C = np.array([0.3, -0.2, 0.5])
D = np.array([0.4, -0.3, 0.25])

# the bundled closure scenarios of the frame-indifferent models (StVK and
# neo-Hookean), and those of the quadratic model, which is not
ANALYTIC = ["closure_shear_neohookean", "closure_sinusoidal_graded_stvk",
            "closure_skewed_graded_stvk", "stvk_uniaxial"]
FD = ["closure_shear_neohookean_fd", "closure_sinusoidal_graded_stvk_fd"]
PRESET = ["preset_nonequilibrium"]
QUADRATIC = ["noether_graded", "noether_harmonic", "surface_independence_graded_control",
             "surface_independence_quadratic"]


def _rebuilt(scenario, **attributes):
    """The scenario with ``attributes`` replaced, and its node data made again
    from them."""
    vars(scenario).update(attributes)
    scenario.volume_data = VolumeNodeData(scenario, scenario.part)
    scenario.surface_data = SurfaceNodeData(scenario, scenario.part)
    return scenario


def _turned(fn, offset=np.zeros(3)):
    """x -> Q fn(x) + offset, Q acting on the first component index."""
    if fn is None:
        return None
    return lambda x: np.einsum("ij,j...->i...", Q, fn(x)) + at_points(offset, x)


def _turned_field(field):
    return dataclasses.replace(field, value=_turned(field.value),
                               gradient=_turned(field.gradient))


def _rotated(scenario):
    """Relation 1: y* = Q y + c, v* = Q v, b* = Q b and y0* = Q y0 + c."""
    motion = scenario.motion
    rotated_motion = dataclasses.replace(
        motion, y=_turned(motion.y, C), gradient=_turned(motion.gradient),
        second_gradient=_turned(motion.second_gradient))
    b, f, couple = scenario.preset_sources
    return _rebuilt(scenario, motion=rotated_motion, v=_turned_field(scenario.v),
                    preset_sources=(_turned_field(b), f, couple), y0=Q @ scenario.y0 + C)


def _shift(fn):
    return None if fn is None else (lambda x: fn(x - at_points(D, x)))


def _translated(scenario):
    """Relation 2: the part, motion, fields, moduli and x0 moved by d."""
    part, model = scenario.part, scenario.model
    moved_part = BodyPart(
        center=part.center + D, scale=part.scale,
        volume_points=part.volume_points + D, volume_weights=part.volume_weights,
        surface=SurfaceQuadrature(part.surface.points + D, part.surface.normals,
                                  part.surface.weights))
    lam, mu = (dataclasses.replace(m, value=_shift(m.value), gradient=_shift(m.gradient))
               for m in (model.lam, model.mu))
    motion, v, w, *sources = (dataclasses.replace(obj, **{
        name: _shift(getattr(obj, name))
        for name in ("y", "value", "gradient", "second_gradient") if hasattr(obj, name)})
        for obj in (scenario.motion, scenario.v, scenario.w, *scenario.preset_sources))
    return _rebuilt(scenario, part=moved_part, model=type(model)(lam, mu), motion=motion,
                    v=v, w=w, preset_sources=tuple(sources), x0=scenario.x0 + D)


def _pulled(fn, rotation=None):
    """X -> fn(Q^t X), its values taken through the einsum ``rotation`` with one
    Q per further operand: the chain rule's Q^t on each material index."""
    if fn is None:
        return None

    def pulled(x):
        value = fn(np.einsum("ji,j...->i...", Q, x))
        return value if rotation is None else np.einsum(
            rotation, value, *(Q,) * rotation.count(","))
    return pulled


def _pulled_field(field, turned=False):
    """X -> field(Q^t X), its values turned by Q when ``turned`` (w, f and mu,
    which live in the material space), and its gradient to match."""
    if turned:
        return dataclasses.replace(field, value=_pulled(field.value, "a...,ia->i..."),
                                   gradient=_pulled(field.gradient, "ab...,ia,lb->il..."))
    return dataclasses.replace(field, value=_pulled(field.value),
                               gradient=_pulled(field.gradient, "ka...,la->kl..."))


def _material_rotated(scenario):
    """Relation 3: the part, y, v, w, the preset sources and the moduli seen
    from the material frame turned by Q, and x0* = Q x0."""
    part, model, motion, v, w = (scenario.part, scenario.model, scenario.motion,
                                 scenario.v, scenario.w)
    turned_part = BodyPart(
        center=Q @ part.center, scale=part.scale,
        volume_points=part.volume_points @ Q.T, volume_weights=part.volume_weights,
        surface=SurfaceQuadrature(part.surface.points @ Q.T, part.surface.normals @ Q.T,
                                  part.surface.weights))
    lam, mu = (dataclasses.replace(m, value=_pulled(m.value),
                                   gradient=_pulled(m.gradient, "a...,ia->i..."))
               for m in (model.lam, model.mu))
    motion = dataclasses.replace(
        motion, y=_pulled(motion.y), gradient=_pulled(motion.gradient, "ka...,la->kl..."),
        second_gradient=_pulled(motion.second_gradient, "kab...,la,jb->klj..."))
    b, f, couple = scenario.preset_sources
    return _rebuilt(scenario, part=turned_part, model=type(model)(lam, mu), motion=motion,
                    v=_pulled_field(v), w=_pulled_field(w, turned=True),
                    preset_sources=(_pulled_field(b), _pulled_field(f, turned=True),
                                    _pulled_field(couple, turned=True)),
                    x0=Q @ scenario.x0)


def _report(scenario):
    """P_rel, its pieces, P_inn and R1..R4 of the scenario."""
    power = fn.relative_power(scenario)
    return (power, fn.inner_relative_power(scenario),
            fn.integral_balance_residuals(scenario))


def _tolerance(name):
    # quadrature identities hold to round-off with analytic derivatives; the
    # finite-difference scenarios gate their balances at their own tolerance
    return (load_bundled_config(name)["checks"]["balances"]["tolerance"]
            if name in FD else 1e-12)


@pytest.mark.parametrize("name", ANALYTIC + FD + PRESET)
def test_ambient_rigid_motion_rotates_only_the_standard_residuals(name):
    config = load_bundled_config(name)
    scenario, tol = Scenario(config), _tolerance(name)
    power, inner, residuals = _report(scenario)
    rotated = _rotated(Scenario(config))
    moved_power, moved_inner, moved = _report(rotated)
    assert abs(moved_power.total - power.total) <= tol * max(1.0, abs(power.total))
    assert abs(moved_inner - inner) <= tol * max(1.0, abs(inner))
    expected = (Q @ residuals.force, Q @ residuals.torque,
                residuals.configurational_force, residuals.configurational_torque)
    for got, want in zip(moved, expected):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)
    # node by node: P* = Q P and b* = Q b, while e, PP and f stay
    vol, turned = scenario.volume_data, rotated.volume_data
    for field, rotates in (("stress", True), ("body_force", True), ("energy", False),
                           ("eshelby", False), ("driving_force", False)):
        want = getattr(vol, field)
        want = np.einsum("ij,j...->i...", Q, want) if rotates else want
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(getattr(turned, field), want, rtol=0.0,
                                   atol=tol * scale, err_msg=field)


@pytest.mark.parametrize("name", ANALYTIC + FD + QUADRATIC + PRESET)
def test_material_translation_leaves_every_report_value(name):
    config = load_bundled_config(name)
    (power, inner, residuals), tol = _report(Scenario(config)), _tolerance(name)
    moved_power, moved_inner, moved = _report(_translated(Scenario(config)))
    for piece, value in dataclasses.asdict(power).items():
        assert abs(getattr(moved_power, piece) - value) <= tol * max(1.0, abs(value)), piece
    assert abs(moved_inner - inner) <= tol * max(1.0, abs(inner))
    for got, want in zip(moved, residuals):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


@pytest.mark.parametrize("name", ANALYTIC + FD + PRESET)
def test_material_rotation_rotates_only_the_configurational_residuals(name):
    config = load_bundled_config(name)
    scenario, turned = Scenario(config), _material_rotated(Scenario(config))
    (power, inner, residuals), tol = _report(scenario), _tolerance(name)
    moved_power, moved_inner, moved = _report(turned)
    assert abs(moved_power.total - power.total) <= tol * max(1.0, abs(power.total))
    assert abs(moved_inner - inner) <= tol * max(1.0, abs(inner))
    expected = (residuals.force, residuals.torque, Q @ residuals.configurational_force,
                Q @ residuals.configurational_torque)
    for got, want in zip(moved, expected):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)
    # node by node: P* = P Q^t, PP* = Q PP Q^t and f* = Q f, while e and b stay
    vol = scenario.volume_data
    for field, want in (("stress", np.einsum("ijn,lj->iln", vol.stress, Q)),
                        ("eshelby", np.einsum("ij,jkn,lk->iln", Q, vol.eshelby, Q)),
                        ("driving_force", np.einsum("ij,jn->in", Q, vol.driving_force)),
                        ("energy", vol.energy), ("body_force", vol.body_force)):
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(getattr(turned.volume_data, field), want, rtol=0.0,
                                   atol=tol * scale, err_msg=field)
