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
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .fields import Motion, VirtualFieldPair, central_difference
from .materials import BodyForcePotential, MaterialModel
from .tensors import IDENTITY, as_vector, axial_vector, skew_part

DEFAULT_DIVERGENCE_STEP = 1e-4


def fd_tensor_divergence(field: Callable[[np.ndarray], np.ndarray], x,
                         step: float) -> np.ndarray:
    """Central-difference divergence (on the second index) of a tensor field."""
    grad = central_difference(field, x, step)
    div = np.zeros(3)
    for j in range(3):
        div += grad[:, j, j]
    return div


def eshelby_stress(model: MaterialModel, x, f) -> np.ndarray:
    """PP = e I - F^t P."""
    return model.energy(x, f) * IDENTITY - f.T @ model.stress(x, f)


def eshelby_field(model: MaterialModel, motion: Motion) -> Callable[[np.ndarray], np.ndarray]:
    def field(x):
        return eshelby_stress(model, x, motion.deformation_gradient(x))
    return field


def first_pk_field(model: MaterialModel, motion: Motion) -> Callable[[np.ndarray], np.ndarray]:
    def field(x):
        return model.stress(x, motion.deformation_gradient(x))
    return field


def div_first_pk(model: MaterialModel, motion: Motion, x,
                 step: float = DEFAULT_DIVERGENCE_STEP) -> np.ndarray:
    """Div P along the motion, analytic when the motion supports it."""
    x = as_vector(x)
    if motion.second_gradient is not None:
        f = motion.deformation_gradient(x)
        dp_dx = model.stress_material_gradient(x, f)
        dp_df = model.stress_tangent(x, f)
        df_dx = motion.deformation_second_gradient(x)
        return (np.einsum("ijj->i", dp_dx)
                + np.einsum("ijkl,klj->i", dp_df, df_dx))
    return fd_tensor_divergence(first_pk_field(model, motion), x, step)


def div_eshelby(model: MaterialModel, motion: Motion, x,
                step: float = DEFAULT_DIVERGENCE_STEP) -> np.ndarray:
    """Div PP along the motion, by direct product-rule differentiation."""
    x = as_vector(x)
    if motion.second_gradient is not None:
        f = motion.deformation_gradient(x)
        p = model.stress(x, f)
        df_dx = motion.deformation_second_gradient(x)
        grad_e = (model.material_gradient(x, f)
                  + np.einsum("kl,klj->j", p, df_dx))
        div_p = div_first_pk(model, motion, x)
        return grad_e - np.einsum("kaj,kj->a", df_dx, p) - f.T @ div_p
    return fd_tensor_divergence(eshelby_field(model, motion), x, step)


# ---------------------------------------------------------------------------
# Manufactured (closure) source fields
# ---------------------------------------------------------------------------

def closure_body_force(model, motion, step: float = DEFAULT_DIVERGENCE_STEP):
    """b := -Div P, which closes the force balance exactly."""
    def b_at(x):
        return -div_first_pk(model, motion, x, step)
    return b_at


def closure_driving_force(model, motion, step: float = DEFAULT_DIVERGENCE_STEP):
    """f := Div PP - F^t b + de/dx|expl evaluated with the closure b."""
    def f_at(x):
        x = as_vector(x)
        f_grad = motion.deformation_gradient(x)
        div_p = div_first_pk(model, motion, x, step)
        return (div_eshelby(model, motion, x, step)
                + f_grad.T @ div_p
                + model.material_gradient(x, f_grad))
    return f_at


def closure_couple(model, motion):
    """mu := axial(2 Skw PP), which closes the configurational torque balance."""
    def mu_at(x):
        x = as_vector(x)
        f = motion.deformation_gradient(x)
        return axial_vector(2.0 * skew_part(eshelby_stress(model, x, f)))
    return mu_at


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
    v = pair.v(x)
    w = pair.w(x)
    return (e + u) * w + p.T @ (v - f @ w)


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
    grad_v = pair.v.grad(x)
    grad_w = pair.w.grad(x)
    du = potential.grad(motion.y(x)) if potential is not None else np.zeros(3)
    first = float(du @ pair.v(x)) + float(np.sum(p * grad_v))
    second = (float(model.material_gradient(x, f) @ pair.w(x))
              - float(np.sum(p * (f @ grad_w))))
    return first, second


def div_noether_flux(model, motion, potential, pair, x,
                     step: float = DEFAULT_DIVERGENCE_STEP) -> float:
    """Divergence of the flux density, by central differences."""
    def flux(xx):
        return noether_flux(model, motion, potential, pair, xx)
    grad = central_difference(flux, x, step)
    total = 0.0
    for j in range(3):
        total += float(grad[j, j])
    return total
