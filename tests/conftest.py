"""Shared helpers: random kinematic states, finite-difference copies, the
pointwise balance residuals and the per-node loop used as oracles."""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import numpy as np
import pytest

from relpower import configurational as conf
from relpower.fields import Motion
from relpower.materials import (MaterialModel, affine_modulus, constant_modulus,
                                make_material, sinusoidal_modulus)
from relpower.tensors import as_vector, axial_vector, skew_part


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
            p[i, j] = (model.energy(x, fp) - model.energy(x, fm)) / (2.0 * step)
    return p


def fd_material_gradient(model: MaterialModel, x, f, h: float = 1e-6) -> np.ndarray:
    """Central differences of the energy in x at frozen F."""
    g = np.empty(3)
    for m in range(3):
        xp = x.copy()
        xm = x.copy()
        xp[m] += h
        xm[m] -= h
        g[m] = (model.energy(xp, f) - model.energy(xm, f)) / (2.0 * h)
    return g


def fd_copy(obj):
    """A motion or virtual field without analytic derivatives, so every
    derivative of it is taken by central differences."""
    if isinstance(obj, Motion):
        return dataclasses.replace(obj, gradient=None, second_gradient=None)
    return dataclasses.replace(obj, gradient=None)


def standard_force_residual(model, motion, b, x,
                            step: float = conf.DEFAULT_DIVERGENCE_STEP) -> np.ndarray:
    """Div P + b at x."""
    return conf.div_first_pk(model, motion, x, step) + as_vector(b)


def configurational_force_residual(model, motion, b, f, x,
                                   step: float = conf.DEFAULT_DIVERGENCE_STEP) -> np.ndarray:
    """Div PP - F^t b + de/dx|expl - f at x."""
    x = as_vector(x)
    f_grad = motion.deformation_gradient(x)
    return (conf.stress_divergences(model, motion, x, step)[1]
            - f_grad.T @ as_vector(b)
            + model.material_gradient(x, f_grad)
            - as_vector(f))


def torque_residuals(model, motion, mu, x):
    """(axial(2 Skw P F^t), axial(2 Skw PP) - mu) at x."""
    x = as_vector(x)
    f = motion.deformation_gradient(x)
    p = model.stress(x, f)
    first = axial_vector(2.0 * skew_part(p @ f.T))
    second = (axial_vector(2.0 * skew_part(conf.eshelby_stress(model, x, f)))
              - as_vector(mu))
    return first, second


def reference_node_data(scenario, points, volume: bool) -> dict:
    """Node data by the per-node loop, one point at a time.

    The oracle for the batched :class:`relpower.scenarios.VolumeNodeData`
    and :class:`relpower.scenarios.SurfaceNodeData`.  Closure b and f take
    Div P and Div PP separately, as their pointwise definitions read.
    """
    model, motion, step = scenario.model, scenario.motion, scenario.divergence_step
    rows = defaultdict(list)
    for x in points:
        f = motion.deformation_gradient(x)
        rows["y"].append(motion.y(x))
        rows["f_grad"].append(f)
        rows["stress"].append(model.stress(x, f))
        rows["eshelby"].append(conf.eshelby_stress(model, x, f))
        rows["energy"].append(model.energy(x, f))
        if not volume:
            continue
        rows["material_gradient"].append(model.material_gradient(x, f))
        if scenario.source_mode == "closure":
            b = -conf.div_first_pk(model, motion, x, step)
            driving = (conf.stress_divergences(model, motion, x, step)[1]
                       + f.T @ conf.div_first_pk(model, motion, x, step)
                       + model.material_gradient(x, f))
            couple = axial_vector(2.0 * skew_part(conf.eshelby_stress(model, x, f)))
        else:
            b, driving, couple = scenario.sources(x)
        rows["body_force"].append(b)
        rows["driving_force"].append(driving)
        rows["couple"].append(couple)
    return {name: np.array(values) for name, values in rows.items()}


def homogeneous_models():
    return [
        make_material("stvk", constant_modulus(1.0), constant_modulus(1.0)),
        make_material("neo_hookean", constant_modulus(1.2), constant_modulus(0.8)),
        make_material("quadratic", constant_modulus(0.0), constant_modulus(1.0)),
    ]


def graded_models():
    return [
        make_material("stvk", affine_modulus(1.0, [0.2, -0.1, 0.3]),
                      affine_modulus(1.0, [0.4, 0.0, 0.0])),
        make_material("neo_hookean", constant_modulus(1.2),
                      sinusoidal_modulus(1.0, 0.3, [1.1, 0.7, -0.5])),
        make_material("quadratic", constant_modulus(0.0),
                      affine_modulus(1.0, [0.0, 0.0, 0.4])),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
