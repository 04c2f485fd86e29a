"""Eshelby stress, closure sources and conservation-law data.

Conventions.  The divergence of a second-order tensor field T is the
vector with components (Div T)_i = sum_j d T_ij / d x_j (divergence on
the second, reference index).  The adjoint F* is the plain transpose:
all spaces carry the Euclidean metric in orthonormal coordinates.

The four pointwise balances are

    Div P + b = 0                          (forces)
    Skw(P F^t) = 0                         (torques)
    Div PP - F^t b + de/dx|expl = f        (configurational forces)
    axial(2 Skw PP) = mu                   (configurational torques)

with PP = e I - F^t P the Eshelby stress.  "Closure" sources are the
manufactured fields (b, f, mu) that make the first, third and fourth
balances hold identically for a given motion and material; the second
is constitutive and cannot be closed.

Every function takes points x of shape (..., 3) and deformation
gradients of shape (..., 3, 3), one point or a stack of them.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .fields import Motion, VirtualFieldPair
from .materials import BodyForcePotential, MaterialModel
from .tensors import (IDENTITY, as_vector, axial_vector, contract, dot, matvec,
                      skew_part, transpose)

DEFAULT_DIVERGENCE_STEP = 1e-4


def fd_tensor_divergence(field: Callable[[np.ndarray], np.ndarray], x,
                         step: float) -> np.ndarray:
    """Central-difference divergence on the last index of a vector or tensor field.

    Only component j of the field at x +- step e_j enters term j, so no
    full gradient is built.
    """
    x = as_vector(x)
    div = 0.0
    for j in range(3):
        xp = x.copy()
        xm = x.copy()
        xp[..., j] += step
        xm[..., j] -= step
        div = div + (field(xp)[..., j] - field(xm)[..., j]) / (2.0 * step)
    return div


def eshelby_stress(model: MaterialModel, x, f) -> np.ndarray:
    """PP = e I - F^t P."""
    return (np.asarray(model.energy(x, f))[..., None, None] * IDENTITY
            - transpose(f) @ model.stress(x, f))


def div_first_pk(model: MaterialModel, motion: Motion, x,
                 step: float = DEFAULT_DIVERGENCE_STEP) -> np.ndarray:
    """Div P along the motion, analytic when the motion supports it.

    The analytic form contracts dP/dF with dF/dx one column j at a time,
    as the directional derivative dP/dF[dF/dx_j].
    """
    x = as_vector(x)
    if motion.second_gradient is None:
        return fd_tensor_divergence(
            lambda xx: model.stress(xx, motion.deformation_gradient(xx)), x, step)
    f = motion.deformation_gradient(x)
    df_dx = motion.second_gradient(x)
    div = np.einsum("...ijj->...i", model.stress_material_gradient(x, f))
    for j in range(3):
        div = div + model.stress_derivative(x, f, df_dx[..., j])[..., :, j]
    return div


def stress_divergences(model: MaterialModel, motion: Motion, x,
                       step: float = DEFAULT_DIVERGENCE_STEP):
    """(Div P, Div PP) along the motion from one Div P evaluation."""
    x = as_vector(x)
    if motion.second_gradient is None:
        def stresses(xx):   # P and PP stacked as (..., 2, 3, 3)
            f = motion.deformation_gradient(xx)
            return np.stack([model.stress(xx, f), eshelby_stress(model, xx, f)],
                            axis=-3)
        both = fd_tensor_divergence(stresses, x, step)
        return both[..., 0, :], both[..., 1, :]
    f = motion.deformation_gradient(x)
    p = model.stress(x, f)
    df_dx = motion.second_gradient(x)
    div_p = div_first_pk(model, motion, x)
    grad_e = model.material_gradient(x, f) + np.einsum("...kl,...klj->...j", p, df_dx)
    return div_p, (grad_e - np.einsum("...kaj,...kj->...a", df_dx, p)
                   - matvec(transpose(f), div_p))


# ---------------------------------------------------------------------------
# Manufactured (closure) source fields
# ---------------------------------------------------------------------------

def closure_sources(model: MaterialModel, motion: Motion,
                    step: float = DEFAULT_DIVERGENCE_STEP):
    """x -> (b, f, mu), the sources that close three pointwise balances:

        b  := -Div P                       (forces)
        f  := Div PP - F^t b + de/dx|expl  (configurational forces)
        mu := axial(2 Skw PP)              (configurational torques)

    b and f share one Div P evaluation.
    """
    def sources(x):
        x = as_vector(x)
        f_grad = motion.deformation_gradient(x)
        div_p, div_pp = stress_divergences(model, motion, x, step)
        driving = (div_pp + matvec(transpose(f_grad), div_p)
                   + model.material_gradient(x, f_grad))
        couple = axial_vector(2.0 * skew_part(eshelby_stress(model, x, f_grad)))
        return -div_p, driving, couple
    return sources


# ---------------------------------------------------------------------------
# Conservation-law (equivariance) data
# ---------------------------------------------------------------------------

def noether_flux(model: MaterialModel, motion: Motion,
                 potential: Optional[BodyForcePotential],
                 pair: VirtualFieldPair, x) -> np.ndarray:
    """Flux density (e + u) w + P^t (v - F w)."""
    x = as_vector(x)
    f = motion.deformation_gradient(x)
    p = model.stress(x, f)
    e = model.energy(x, f)
    u = potential(motion.y(x)) if potential is not None else 0.0
    w = pair.w(x)
    return (np.asarray(e + u)[..., None] * w
            + matvec(transpose(p), pair.v(x) - matvec(f, w)))


def noether_condition_residuals(model: MaterialModel, motion: Motion,
                                potential: Optional[BodyForcePotential],
                                pair: VirtualFieldPair, x):
    """Left-hand sides of the two equivariance conditions.

    First: du/dy . v + P . grad v.  Second: de/dx|expl . w - P . (F grad w).
    Both gradients are reference-space gradients of the fields x -> v, w.
    """
    x = as_vector(x)
    f = motion.deformation_gradient(x)
    p = model.stress(x, f)
    du = potential.grad(motion.y(x)) if potential is not None else np.zeros(x.shape)
    first = dot(du, pair.v(x)) + contract(p, pair.v.grad(x))
    second = (dot(model.material_gradient(x, f), pair.w(x))
              - contract(p, f @ pair.w.grad(x)))
    return first, second


def div_noether_flux(model, motion, potential, pair, x,
                     step: float = DEFAULT_DIVERGENCE_STEP) -> np.ndarray:
    """Divergence of the flux density, by central differences."""
    return fd_tensor_divergence(
        lambda xx: noether_flux(model, motion, potential, pair, xx), x, step)
