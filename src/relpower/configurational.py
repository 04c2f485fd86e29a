"""Point states, and the closure and conservation-law data read from them.

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

Node data, closure sources, the Eshelby stress off the nodes and the
conservation-law checks all read one :class:`PointState` (y, F, P, e, PP,
de/dx|expl) from :func:`point_state`, whose constitutive part is one
:meth:`MaterialModel.response`, and which a finite-difference divergence
makes at each shifted point.  Points x are (..., 3), one or a stack of them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .fields import Motion, VirtualFieldPair, central_difference
from .materials import BodyForcePotential, MaterialModel
from .tensors import (IDENTITY, axial_vector, check_finite, contract, dot, matvec,
                      skew_part, transpose)

DEFAULT_DIVERGENCE_STEP = 1e-4


def fd_tensor_divergence(field: Callable[[np.ndarray], np.ndarray], x,
                         step: float) -> np.ndarray:
    """Central-difference divergence on the last index of a vector or tensor field."""
    return np.trace(central_difference(field, x, step), axis1=-2, axis2=-1)


class PointState(NamedTuple):
    """The constitutive state along a motion at points (..., 3)."""

    y: np.ndarray                   # (..., 3)
    f_grad: np.ndarray              # F, (..., 3, 3)
    stress: np.ndarray              # P, (..., 3, 3)
    energy: np.ndarray              # e, (...)
    eshelby: np.ndarray             # PP = e I - F^t P, (..., 3, 3)
    material_gradient: np.ndarray   # de/dx|expl, (..., 3)


def point_state(model: MaterialModel, motion: Motion, x) -> PointState:
    """y, F, P, e, PP and de/dx|expl at points x, each made once and checked finite."""
    f = motion.deformation_gradient(x)
    e, p, material_gradient = model.response(x, f)
    eshelby = e[..., None, None] * IDENTITY - transpose(f) @ p
    state = PointState(motion.y(x), f, p, e, eshelby, material_gradient)
    check_finite(x, **state._asdict())
    return state


def stress_divergences(model: MaterialModel, motion: Motion, x, state: PointState,
                       step: float):
    """(Div P, Div PP) along the motion at points x of the given state.

    Analytic from F, P and de/dx|expl of the state when the motion has dF/dx:
    Div P from :meth:`MaterialModel.div_stress`, and Div PP = grad e - Div(F^t P).
    Otherwise central differences of P and PP of the :func:`point_state` at
    each shifted point.
    """
    if motion.second_gradient is None:
        def stresses(xx):   # P and PP stacked as (..., 2, 3, 3)
            shifted = point_state(model, motion, xx)
            return np.stack([shifted.stress, shifted.eshelby], axis=-3)
        both = fd_tensor_divergence(stresses, x, step)
        return both[..., 0, :], both[..., 1, :]
    f, p = state.f_grad, state.stress
    df_dx = motion.second_gradient(x)
    div_p = model.div_stress(x, f, df_dx)
    grad_e = state.material_gradient + np.einsum("...kl,...klj->...j", p, df_dx)
    return div_p, (grad_e - np.einsum("...kaj,...kj->...a", df_dx, p)
                   - matvec(transpose(f), div_p))


# ---------------------------------------------------------------------------
# Manufactured (closure) source fields
# ---------------------------------------------------------------------------

def closure_sources(model: MaterialModel, motion: Motion, step: float):
    """(x, state) -> (b, f, mu), the sources that close three pointwise balances:

        b  := -Div P                       (forces)
        f  := Div PP - F^t b + de/dx|expl  (configurational forces)
        mu := axial(2 Skw PP)              (configurational torques)
    """
    def sources(x, state: PointState):
        div_p, div_pp = stress_divergences(model, motion, x, state, step)
        driving = (div_pp + matvec(transpose(state.f_grad), div_p)
                   + state.material_gradient)
        return -div_p, driving, axial_vector(2.0 * skew_part(state.eshelby))
    return sources


# ---------------------------------------------------------------------------
# Conservation-law (equivariance) data
# ---------------------------------------------------------------------------

def noether_flux(potential: BodyForcePotential, pair: VirtualFieldPair, x,
                 state: PointState) -> np.ndarray:
    """Flux density (e + u) w + P^t (v - F w) at points x of the given state."""
    w = pair.w(x)
    return (np.asarray(state.energy + potential(state.y))[..., None] * w
            + matvec(transpose(state.stress), pair.v(x) - matvec(state.f_grad, w)))


def noether_condition_residuals(potential: BodyForcePotential, pair: VirtualFieldPair,
                                x, state: PointState):
    """Left-hand sides of the two equivariance conditions at points x.

    First: du/dy . v + P . grad v.  Second: de/dx|expl . w - P . (F grad w).
    Both gradients are reference-space gradients of the fields x -> v, w.
    """
    first = (dot(potential.grad(state.y), pair.v(x))
             + contract(state.stress, pair.v.grad(x)))
    second = (dot(state.material_gradient, pair.w(x))
              - contract(state.stress, state.f_grad @ pair.w.grad(x)))
    return first, second


def div_noether_flux(model: MaterialModel, motion: Motion,
                     potential: BodyForcePotential, pair: VirtualFieldPair, x,
                     step: float) -> np.ndarray:
    """Divergence of the flux density, by central differences."""
    return fd_tensor_divergence(
        lambda xx: noether_flux(potential, pair, xx, point_state(model, motion, xx)),
        x, step)
