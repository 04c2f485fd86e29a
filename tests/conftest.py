"""Shared helpers: random kinematic states, a sphere quadrature, finite-difference
copies and divergences, the pointwise balance residuals, the per-node loop, the per-change
observer loop and the coefficient norms of a decomposition, used as
oracles, and the benchmark's draw generator.  The repository's root
``conftest.py`` gives child interpreters the tree under test."""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import pathlib
from collections import defaultdict

import numpy as np
import pytest

from relpower import configurational as conf
from relpower import functionals as fn
from relpower.fields import Motion, central_difference
from relpower.geometry import SurfaceQuadrature, spherical_rule
from relpower.materials import (MODEL_CLASSES, MaterialModel, affine_modulus,
                                constant_modulus, sinusoidal_modulus)
from relpower.tensors import as_vector, axial_vector, skew_part

# perfbench/generate.py, loaded by path: the draws the benchmark runs, and
# validates against the published schema before it times them
_spec = importlib.util.spec_from_file_location(
    "generate", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


def sphere_surface(center, radius: float, angular_points: int) -> SurfaceQuadrature:
    """Quadrature on one sphere, with outward normals, built on its own: the
    oracle of the boundary a ball or shell builds from its own rule."""
    dirs, wts = spherical_rule(angular_points)
    return SurfaceQuadrature(points=np.asarray(center, float) + radius * dirs,
                             normals=dirs, weights=4.0 * math.pi * radius ** 2 * wts)


def random_state(rng, det_lo: float = 0.5, det_hi: float = 2.0):
    """One random (x, F) with det F inside [det_lo, det_hi]."""
    while True:
        f = np.eye(3) + 0.4 * rng.uniform(-1.0, 1.0, size=(3, 3))
        det = np.linalg.det(f)
        if det_lo <= det <= det_hi:
            return rng.uniform(-0.5, 0.5, size=3), f


def fd_stress(model: MaterialModel, x, f, h: float = 1e-6) -> np.ndarray:
    """Componentwise central differences of the energy in F."""
    p = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            fp = f.copy()
            fm = f.copy()
            step = h * max(1.0, abs(f[i, j]))
            fp[i, j] += step
            fm[i, j] -= step
            p[i, j] = (model.response(x, fp)[0] - model.response(x, fm)[0]) / (2.0 * step)
    return p


def fd_material_gradient(model: MaterialModel, x, f, h: float = 1e-6) -> np.ndarray:
    """Central differences of the energy in x at frozen F."""
    g = np.empty(3)
    for m in range(3):
        xp = x.copy()
        xm = x.copy()
        xp[m] += h
        xm[m] -= h
        g[m] = (model.response(xp, f)[0] - model.response(xm, f)[0]) / (2.0 * h)
    return g


def fd_copy(obj):
    """A motion or virtual field without analytic derivatives, so every
    derivative of it is taken by central differences."""
    if isinstance(obj, Motion):
        return dataclasses.replace(obj, gradient=None, second_gradient=None)
    return dataclasses.replace(obj, gradient=None)


def fd_divergence(field, x, step: float):
    """sum_j (T(x + h e_j) - T(x - h e_j))[..., j] / (2 h) at one point x: the
    divergence on the last index of a field of vectors or tensors, by central
    differences of the field itself."""
    x = as_vector(x)
    return sum((np.asarray(field(x + step * e)) - np.asarray(field(x - step * e)))[..., j]
               for j, e in enumerate(np.eye(3))) / (2.0 * step)


def fd_stress_divergences(model, motion, x, step: float = conf.DEFAULT_DIVERGENCE_STEP):
    """(Div P, Div PP) at one point x by central differences of P and of
    PP = e I - F^t P: the oracle that assumes no stress derivative."""
    def stresses(xx):
        f = motion.deformation_gradient(xx)
        e, p, _ = model.response(xx, f)
        return np.stack([p, e * np.eye(3) - f.T @ p])

    return tuple(fd_divergence(stresses, x, step))


def reference_divergences(model, motion, x,
                          step: float = conf.DEFAULT_DIVERGENCE_STEP):
    """(Div P, Div PP) at one point x from their definitions.

    Div P = sum_j (dP/dx_j|F + dP/dF[dF/dx_j]) e_j, column by column from
    the model's hooks, and PP = e I - F^t P by the product rule, with
    grad e = de/dx|expl + P : dF/dx.  dF/dx is the motion's own or, when it
    has none, central differences of F with the given step.
    """
    x = as_vector(x)
    f = motion.deformation_gradient(x)
    _, p, material_gradient = model.response(x, f)
    # [k, l, j] = d^2 y_k / dx_l dx_j
    d2y = (central_difference(motion.deformation_gradient, x, step)
           if motion.second_gradient is None else motion.second_gradient(x))
    kin = model.kinematics(f)
    pa, pb = model.stress_parts(f, kin)
    lam, mu = model.lam.value(x), model.mu.value(x)
    grad_lam, grad_mu = model.lam.gradient(x), model.mu.gradient(x)
    div_p = np.zeros(3)
    for j in range(3):
        da, db = model.stress_derivative_parts(f, kin, d2y[:, :, j])
        div_p += (pa[:, j] * grad_lam[j] + pb[:, j] * grad_mu[j]
                  + lam * da[:, j] + mu * db[:, j])
    grad_e = material_gradient + np.einsum("kl,klj->j", p, d2y)
    # (Div F^t P)_a = d_j F_ka P_kj + F_ka (Div P)_k
    div_pp = grad_e - np.einsum("kaj,kj->a", d2y, p) - f.T @ div_p
    return div_p, div_pp


def standard_force_residual(model, motion, b, x,
                            step: float = conf.DEFAULT_DIVERGENCE_STEP) -> np.ndarray:
    """Div P + b at x."""
    return reference_divergences(model, motion, x, step)[0] + as_vector(b)


def configurational_force_residual(model, motion, b, f, x,
                                   step: float = conf.DEFAULT_DIVERGENCE_STEP) -> np.ndarray:
    """Div PP - F^t b + de/dx|expl - f at x."""
    x = as_vector(x)
    f_grad = motion.deformation_gradient(x)
    return (reference_divergences(model, motion, x, step)[1]
            - f_grad.T @ as_vector(b)
            + model.response(x, f_grad)[2]
            - as_vector(f))


def torque_residuals(model, motion, mu, x):
    """(axial(2 Skw P F^t), axial(2 Skw PP) - mu) at x, with PP = e I - F^t P."""
    x = as_vector(x)
    f = motion.deformation_gradient(x)
    e, p, _ = model.response(x, f)
    pp = e * np.eye(3) - f.T @ p
    first = axial_vector(2.0 * skew_part(p @ f.T))
    second = axial_vector(2.0 * skew_part(pp)) - as_vector(mu)
    return first, second


def reference_node_data(scenario, points, volume: bool) -> dict:
    """Node data by the per-node loop, one point at a time, stacked
    component-major (the node axis last) as node data keeps it.

    The oracle for the batched :class:`relpower.scenarios.VolumeNodeData`
    and :class:`relpower.scenarios.SurfaceNodeData`: every field from its
    own definition, never through :func:`relpower.configurational.point_state`,
    the constitutive ones from :meth:`relpower.materials.MaterialModel.response`,
    and the pair's samples from the scenario's fields, one point per call.
    Closure b and f take Div P and Div PP from :func:`reference_divergences`,
    as their pointwise definitions read.  A single point is the same array in
    both layouts, so each row is what the single-point definitions give.
    """
    model, motion, step = scenario.model, scenario.motion, scenario.divergence_step
    v, w = scenario.v, scenario.w
    rows = defaultdict(list)
    for x in points:
        f = motion.deformation_gradient(x)
        e, p, material_gradient = model.response(x, f)
        state = conf.PointState(y=motion.y(x), f_grad=f, stress=p, energy=e,
                                eshelby=e * np.eye(3) - f.T @ p,
                                material_gradient=material_gradient)
        for name, value in state._asdict().items():
            rows[name].append(value)
        rows["v"].append(v(x))
        rows["w"].append(w(x))
        if not volume:
            continue
        grad_w = w.grad(x)
        rows["grad_v"].append(v.grad(x))
        rows["grad_w"].append(grad_w)
        rows["curl_w"].append(axial_vector(grad_w - grad_w.T))
        if scenario.source_mode == "closure":
            div_p, div_pp = reference_divergences(model, motion, x, step)
            b = -div_p
            driving = div_pp + f.T @ div_p + state.material_gradient
            couple = axial_vector(2.0 * skew_part(state.eshelby))
        else:
            b, driving, couple = scenario.sources(x)[1]
        rows["body_force"].append(b)
        rows["driving_force"].append(driving)
        rows["couple"].append(couple)
    return {name: np.moveaxis(np.array(values), 0, -1) for name, values in rows.items()}


def decompose(scenario):
    """``invariance_decomposition`` with the base power it takes from its caller."""
    return fn.invariance_decomposition(scenario, fn.relative_power(scenario))


def coefficient_norms(decomp) -> dict:
    """|c| of each generator slot of an invariance decomposition."""
    return {k: float(np.linalg.norm(v)) for k, v in decomp.coefficients.items()}


def prediction_errors(decomp, residuals) -> dict:
    """|c - R|, the coefficient of each slot against its balance residual
    (R1..R4 in ``GENERATOR_SLOTS`` order)."""
    return {k: float(np.linalg.norm(decomp.coefficients[k] - r))
            for k, r in zip(fn.GENERATOR_SLOTS, residuals)}


def _component_major(rows):
    """A C-contiguous copy of row-major rows (n, ...), the node axis last."""
    return np.ascontiguousarray(np.moveaxis(rows, 0, -1))


def _loop_rows(scenario, v_vol, w_vol, curl_w, v_surf, w_surf):
    """The literal power integrand of one pair's component-major rows (3, n), by
    its five einsum rows over the node rows: (actions, inhomogeneity, couple)
    at the volume nodes and (actions, flux) at the surface nodes."""
    vol, surf = scenario.volume_data, scenario.surface_data
    rel = v_vol - np.einsum("ijn,jn->in", vol.f_grad, w_vol)
    act = np.einsum("in,in->n", vol.body_force, rel)
    inh = np.einsum("in,in->n", vol.material_gradient - vol.driving_force, w_vol)
    cpl = -0.5 * np.einsum("in,in->n", vol.couple, curl_w)
    tractions = np.einsum("ijn,jn->in", surf.stress, surf.normals)
    rel_s = v_surf - np.einsum("ijn,jn->in", surf.f_grad, w_surf)
    act_s = np.einsum("in,in->n", tractions, rel_s)
    flux = np.einsum("in,in->n", surf.normals, w_surf) * surf.energy
    return (act, inh, cpl), (act_s, flux)


def _loop_total(scenario, gens) -> float:
    """P_rel(v*, w*) of one change, from the pair's node rows, one cross product
    per offset, taken row-major, and all five pieces recomputed: the pieces
    summed node by node, then one fsum over the volume and surface terms."""
    vol, surf = scenario.volume_data, scenario.surface_data
    c_hat, q_hat, c, q = (gens[slot] for slot in fn.GENERATOR_SLOTS)
    y0, x0 = scenario.y0, scenario.x0
    cm = _component_major
    (act, inh, cpl), (act_s, flux) = _loop_rows(
        scenario,
        cm(vol.v.T + (c_hat + np.cross(q_hat, vol.y.T - y0))),
        cm(vol.w.T + (c + np.cross(q, vol.points.T - x0))),
        cm(vol.curl_w.T + 2.0 * q),
        cm(surf.v.T + (c_hat + np.cross(q_hat, surf.y.T - y0))),
        cm(surf.w.T + (c + np.cross(q, surf.points.T - x0))))
    terms = [(a + i + m) * w for a, i, m, w in zip(act, inh, cpl, vol.weights)]
    terms += [(a + fl) * w for a, fl, w in zip(act_s, flux, surf.weights)]
    return math.fsum(terms)


def loop_decomposition(scenario):
    """(coefficients, affine_residual) by one literal-power
    evaluation per observer change, the oracle for the stacked
    :func:`relpower.functionals.invariance_decomposition`."""
    vol, surf = scenario.volume_data, scenario.surface_data

    def total(rows, weights):
        return math.fsum(r * w for r, w in zip(rows, weights))

    (act, inh, cpl), (act_s, flux) = _loop_rows(scenario, vol.v, vol.w, vol.curl_w,
                                                surf.v, surf.w)
    actions = total(act, vol.weights) + total(act_s, surf.weights)
    disarrangement = (total(flux, surf.weights) + total(inh, vol.weights)
                      + total(cpl, vol.weights))
    zero = {slot: np.zeros(3) for slot in fn.GENERATOR_SLOTS}
    base_total = _loop_total(scenario, zero)
    coefficients = {
        slot: np.array([_loop_total(scenario, {**zero, slot: np.eye(3)[axis]})
                        - base_total for axis in range(3)])
        for slot in fn.GENERATOR_SLOTS}
    scale = max(1.0, abs(actions), abs(disarrangement),
                max(float(np.max(np.abs(c))) for c in coefficients.values()))
    rng = np.random.default_rng(scenario.seed + 1)
    worst = 0.0
    for _ in range(2):
        gens = {slot: rng.uniform(-1.0, 1.0, size=3) for slot in fn.GENERATOR_SLOTS}
        combined = _loop_total(scenario, gens) - base_total
        predicted = math.fsum(float(coefficients[slot] @ gens[slot])
                              for slot in fn.GENERATOR_SLOTS)
        worst = max(worst, abs(combined - predicted))
    return coefficients, worst / scale


# the shipped models whose energy changes under a superposed rotation
NOT_FRAME_INDIFFERENT = {"quadratic"}


def homogeneous_models():
    return [
        MODEL_CLASSES["stvk"](constant_modulus(1.0), constant_modulus(1.0)),
        MODEL_CLASSES["neo_hookean"](constant_modulus(1.2), constant_modulus(0.8)),
        MODEL_CLASSES["quadratic"](constant_modulus(0.0), constant_modulus(1.0)),
    ]


def graded_models():
    return [
        MODEL_CLASSES["stvk"](affine_modulus(1.0, [0.2, -0.1, 0.3]),
                              affine_modulus(1.0, [0.4, 0.0, 0.0])),
        MODEL_CLASSES["neo_hookean"](constant_modulus(1.2),
                                     sinusoidal_modulus(1.0, 0.3, [1.1, 0.7, -0.5])),
        MODEL_CLASSES["quadratic"](constant_modulus(0.0),
                                   affine_modulus(1.0, [0.0, 0.0, 0.4])),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
