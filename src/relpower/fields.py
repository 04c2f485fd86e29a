"""Motions, virtual velocity fields and isometric observer changes.

A :class:`Motion` maps reference points to ambient points.  A scenario's
virtual velocity fields are ``v``, over the ambient space, and ``w``, over
the material (reference) space; both are functions of the reference point.
Every map takes float points of shape (..., 3), a single point or a stack
of them, and returns row-major values with the same leading axes; node
data transposes them, once per node set, and checks them finite (y and F
in the point state made from them).  Observer changes superpose
rigid rates on either field independently (``functionals.pair_rows(scenario,
generators)`` applies them to the pair's node rows, component-major (3, n)):

    v* = c_hat + q_hat x (y - y0) + v
    w* = c + q x (x - x0) + w

An observer change is its four generators (c_hat, q_hat, c, q), one
(4, 3) array; k changes about a scenario's pivots are a (k, 4, 3) array.

Every preset carries analytic derivatives and takes no step.  An object
whose ``gradient`` is ``None`` takes that derivative by central finite
differences of its ``step`` instead; a scenario in ``fd`` derivative
mode removes these callables and sets its motion step when it builds
the objects, so the mode is chosen once, where the objects are built.

Presets are tabled by config name in ``MOTIONS`` and ``FIELDS``; a
constructor's positional parameters are its preset's config keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import NonPositiveJacobian
from .tensors import (IDENTITY, as_tensor, as_vector, axial_vector, cross, cross_matrix,
                      det, dot, matvec)

DEFAULT_GRADIENT_STEP = 1e-5


def central_difference(fn: Callable[[np.ndarray], object], x, h: float) -> np.ndarray:
    """Central differences of ``fn`` at points ``x`` (..., 3), derivative index last.

    For ``fn`` returning shape (...,) + S the result has shape (...,) + S + (3,)
    with [..., j] = (fn(x + h e_j) - fn(x - h e_j)) / (2 h).
    """
    out = None
    for j in range(3):
        xp = x.copy()
        xm = x.copy()
        xp[..., j] += h
        xm[..., j] -= h
        diff = (np.asarray(fn(xp), float) - np.asarray(fn(xm), float)) / (2.0 * h)
        if out is None:
            out = np.empty(diff.shape + (3,))
        out[..., j] = diff
    return out


def curl_from_gradient(grad_w) -> np.ndarray:
    """curl w as the axial vector of grad w - (grad w)^t, component-major."""
    return axial_vector(grad_w - np.swapaxes(grad_w, 0, 1))


def _constant(value: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``value`` at every point of ``x``, as a read-only view."""
    return np.broadcast_to(value, x.shape[:-1] + value.shape)


@dataclass(frozen=True)
class Motion:
    """Placement map ``y``: x -> y(x), with optional analytic derivatives.

    ``gradient`` returns F(x); ``second_gradient`` returns dF/dx as a
    (..., 3, 3, 3) array with entries [..., k, l, j] = d^2 y_k / (d x_l d x_j).
    ``step`` is the finite-difference step used when ``gradient`` is absent.
    """

    y: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    second_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    step: float = DEFAULT_GRADIENT_STEP

    def deformation_gradient(self, x, use_analytic: bool = True) -> np.ndarray:
        """F(x) = Dy(x); raises :class:`NonPositiveJacobian` unless det F > 0
        at every point."""
        if use_analytic and self.gradient is not None:
            f = self.gradient(x)
        else:
            f = central_difference(self.y, x, self.step)
        jac = np.ravel(det(np.einsum("...ij->ij...", f)))   # a component-major view
        bad = np.flatnonzero(jac <= 0.0)
        if bad.size:
            i = bad[0]
            raise NonPositiveJacobian(
                f"det F = {jac[i]:g} <= 0 at x = {x.reshape(-1, 3)[i]}")
        return f


@dataclass(frozen=True)
class VirtualField:
    """A differentiable vector field over the reference place."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    step: float = DEFAULT_GRADIENT_STEP

    def __call__(self, x) -> np.ndarray:
        return self.value(x)

    def grad(self, x) -> np.ndarray:
        return (central_difference(self.value, x, self.step) if self.gradient is None
                else self.gradient(x))


# ---------------------------------------------------------------------------
# Motion presets
# ---------------------------------------------------------------------------

_NO_SECOND_GRADIENT = np.zeros((3, 3, 3))


def homogeneous_motion(matrix) -> Motion:
    """y = F0 x"""
    f0 = as_tensor(matrix)
    return Motion(
        y=lambda x: matvec(f0, x),
        gradient=lambda x: _constant(f0, x),
        second_gradient=lambda x: _constant(_NO_SECOND_GRADIENT, x),
    )


def identity_motion() -> Motion:
    """y = x"""
    return homogeneous_motion(IDENTITY)


def rotation_motion(axis, angle: float) -> Motion:
    """rigid rotation y = R x"""
    axis = as_vector(axis)
    if not np.any(axis):
        raise ValueError("rotation axis must be nonzero")
    n = axis / np.linalg.norm(axis)
    k = cross_matrix(n)
    r = IDENTITY + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)  # Rodrigues
    return homogeneous_motion(r)


def shear_motion(gamma: float) -> Motion:
    """y = x + gamma x_2 e_1"""
    f0 = IDENTITY + gamma * np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    return homogeneous_motion(f0)


def harmonic_motion(alpha: float) -> Motion:
    """y = x + alpha (x1^2 - x2^2, -2 x1 x2, 0)

    The displacement is the gradient of the harmonic potential
    alpha * (x1^3/3 - x1 x2^2), so its gradient is symmetric and its
    Laplacian vanishes identically.
    """

    def placement(x):
        x1, x2 = x[..., 0], x[..., 1]
        return x + alpha * np.stack([x1 ** 2 - x2 ** 2, -2.0 * x1 * x2,
                                     np.zeros(x1.shape)], axis=-1)

    # the displacement gradient is linear in x: H_kl = second_klj x_j
    second = np.zeros((3, 3, 3))
    second[0, 0, 0] = 2.0
    second[0, 1, 1] = -2.0
    second[1, 0, 1] = -2.0
    second[1, 1, 0] = -2.0
    second *= alpha
    return Motion(placement,
                  gradient=lambda x: IDENTITY + np.einsum("klj,...j->...kl", second, x),
                  second_gradient=lambda x: _constant(second, x))


def sinusoidal_motion(amplitude: float, wavevector, direction) -> Motion:
    """y = x + a sin(k.x) d"""
    k = as_vector(wavevector)
    d = as_vector(direction)

    def placement(x):
        return x + (amplitude * np.sin(dot(k, x)))[..., None] * d

    dk = np.outer(d, k)

    def gradient(x):
        return IDENTITY + (amplitude * np.cos(dot(k, x)))[..., None, None] * dk

    dkk = np.einsum("i,j,k->ijk", d, k, k)

    def second_gradient(x):
        return (-amplitude * np.sin(dot(k, x)))[..., None, None, None] * dkk

    return Motion(placement, gradient, second_gradient)


MOTIONS = {"identity": identity_motion, "homogeneous": homogeneous_motion,
           "rotation": rotation_motion, "shear": shear_motion,
           "harmonic": harmonic_motion, "sinusoidal": sinusoidal_motion}


# ---------------------------------------------------------------------------
# Virtual-field presets
# ---------------------------------------------------------------------------

_ZERO_GRADIENT = np.zeros((3, 3))


def constant_field(value) -> VirtualField:
    """uniform field"""
    value = as_vector(value)
    return VirtualField(lambda x: _constant(value, x),
                        gradient=lambda x: _constant(_ZERO_GRADIENT, x))


def rigid_field(translation, rotation, pivot) -> VirtualField:
    """c + q x (x - x0)"""
    c = as_vector(translation)
    q = as_vector(rotation)
    x0 = as_vector(pivot)
    q_cross = cross_matrix(q)
    return VirtualField(lambda x: c + cross(q, x - x0),
                        gradient=lambda x: _constant(q_cross, x))


def affine_field(value, matrix, pivot=None) -> VirtualField:
    """value + A (x - pivot)"""
    c = as_vector(value)
    a = as_tensor(matrix)
    x0 = np.zeros(3) if pivot is None else as_vector(pivot)
    return VirtualField(lambda x: c + matvec(a, x - x0),
                        gradient=lambda x: _constant(a, x))


def linear_field(matrix) -> VirtualField:
    """A x"""
    return affine_field(np.zeros(3), matrix)


def sinusoidal_field(amplitude: float, wavevector, direction) -> VirtualField:
    """a sin(k.x) d; curl-free iff d || k"""
    k = as_vector(wavevector)
    d = as_vector(direction)
    dk = np.outer(d, k)
    return VirtualField(
        lambda x: (amplitude * np.sin(dot(k, x)))[..., None] * d,
        gradient=lambda x: (amplitude * np.cos(dot(k, x)))[..., None, None] * dk,
    )


FIELDS = {"constant": constant_field, "rigid": rigid_field, "linear": linear_field,
          "affine": affine_field, "sinusoidal": sinusoidal_field}
