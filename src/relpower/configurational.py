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

Node data, closure sources and the Eshelby stress off the nodes read one
:class:`PointState` (y, F, P, e, PP, de/dx|expl) from :func:`point_state`,
whose constitutive part is one :meth:`MaterialModel.response`, which also
gives closure sources Div P from dF/dx, the motion's own or, in ``fd``
mode, central differences of F: one formula in both modes.  The
conservation-law data reads any state with those names,
node data among them, and takes the pair's samples beside it: this module
evaluates no virtual field.  Points x are (3, ...), one or a stack of
them, and the state is (3, ...) and (3, 3, ...), the node axes last.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fields import Motion, central_difference
from .materials import BodyForcePotential, MaterialModel
from .tensors import axial_vector, check_finite, contract, identity_like, skew_part

DEFAULT_DIVERGENCE_STEP = 1e-4


class PointState(NamedTuple):
    """The constitutive state along a motion at n points."""

    y: np.ndarray                   # (3, n)
    f_grad: np.ndarray              # F, (3, 3, n)
    stress: np.ndarray              # P, (3, 3, n)
    energy: np.ndarray              # e, (n,)
    eshelby: np.ndarray             # PP = e I - F^t P, (3, 3, n)
    material_gradient: np.ndarray   # de/dx|expl, (3, n)


def point_state(model: MaterialModel, motion: Motion, x, df_dx=None):
    """y, F, P, e, PP and de/dx|expl at points x, each made once and checked
    finite; given dF/dx = ``df_dx``, (state, Div P) from the same response."""
    f = motion.deformation_gradient(x)
    e, p, material_gradient, *div_p = model.response(x, f, df_dx)
    eshelby = e * identity_like(f) - np.einsum("ki...,kj...->ij...", f, p)
    state = PointState(motion.y(x), f, p, e, eshelby, material_gradient)
    check_finite(x, **state._asdict())
    return (state, *div_p) if div_p else state


def stress_divergences(model: MaterialModel, motion: Motion, x, step: float):
    """(state, Div P, Div PP): the :func:`point_state` at points x and the
    divergences of its P and PP along the motion.

    Both come from dF/dx, the motion's own or, when it has none, central
    differences of F with the given step: Div P from the response that made
    the state's P, and Div PP = grad e - Div(F^t P).
    """
    df_dx = (central_difference(motion.deformation_gradient, x, step)
             if motion.second_gradient is None else motion.second_gradient(x))
    state, div_p = point_state(model, motion, x, df_dx)
    # q_lij = sum_k P_kl dF_kij/dx: grad e - Div(F^t P) reads its diagonals
    q = np.einsum("kl...,kij...->lij...", state.stress, df_dx)
    grad_e = state.material_gradient + (q[0, 0] + q[1, 1] + q[2, 2])
    return state, div_p, (grad_e - (q[0, :, 0] + q[1, :, 1] + q[2, :, 2])
                          - np.einsum("ki...,k...->i...", state.f_grad, div_p))


# ---------------------------------------------------------------------------
# Manufactured (closure) source fields
# ---------------------------------------------------------------------------

def closure_sources(model: MaterialModel, motion: Motion, x, step: float):
    """(state, (b, f, mu)) at points x: the state, and sources closing three balances:

        b  := -Div P                       (forces)
        f  := Div PP - F^t b + de/dx|expl  (configurational forces)
        mu := axial(2 Skw PP)              (configurational torques)
    """
    state, div_p, div_pp = stress_divergences(model, motion, x, step)
    driving = (div_pp + np.einsum("ki...,k...->i...", state.f_grad, div_p)
               + state.material_gradient)
    return state, (-div_p, driving, axial_vector(2.0 * skew_part(state.eshelby)))


# ---------------------------------------------------------------------------
# Conservation-law (equivariance) data
# ---------------------------------------------------------------------------

def noether_flux(potential: BodyForcePotential, state: PointState, v, w) -> np.ndarray:
    """Flux density (e + u) w + P^t (v - F w) of the given state and pair samples."""
    f_w = np.einsum("ij...,j...->i...", state.f_grad, w)
    return ((state.energy + potential(state.y)) * w
            + np.einsum("ki...,k...->i...", state.stress, v - f_w))


def noether_condition_residuals(potential: BodyForcePotential, state: PointState,
                                v, grad_v, w, grad_w):
    """Left-hand sides of the two equivariance conditions, from the given state
    and the pair's samples at its points.

    First: du/dy . v + P . grad v.  Second: de/dx|expl . w - P . (F grad w).
    Both gradients are reference-space gradients of the fields x -> v, w.
    """
    first = (np.einsum("i...,i...->...", potential.grad(state.y), v)
             + contract(state.stress, grad_v))
    second = (np.einsum("i...,i...->...", state.material_gradient, w) - contract(
        state.stress, np.einsum("ik...,kj...->ij...", state.f_grad, grad_w)))
    return first, second
