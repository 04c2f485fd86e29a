"""Motions, virtual velocity fields and isometric observer changes.

A :class:`Motion` maps reference points to ambient points.  A scenario's
virtual velocity fields are ``v``, over the ambient space, and ``w``, over
the material (reference) space; both are functions of the reference point.
Every map takes float points x (3, ...), a single point or a stack of
them, and returns its values component-major, the component axes first
and x's point axes last; node data checks them finite (y and F in the
point state made from them).  Observer changes superpose rigid rates on
either field independently (``functionals.pair_rows(scenario,
generators)`` applies them to the pair's node rows):

    v* = c_hat + q_hat x (y - y0) + v
    w* = c + q x (x - x0) + w

An observer change is its four generators (c_hat, q_hat, c, q), one
(4, 3) array; k changes about a scenario's pivots are a (k, 4, 3) array.

Every preset carries analytic derivatives and takes no step.  An object
whose ``gradient`` is ``None`` takes that derivative by central finite
differences of its ``step`` instead (a motion without ``second_gradient``,
dF/dx by differences of F at the divergence step); a scenario in ``fd``
derivative mode removes these callables and sets its motion step when it
builds the objects, so the mode is chosen once, where the objects are built.

Presets are tabled by config name in ``MOTIONS`` and ``FIELDS``; a
constructor's positional parameters are its preset's config keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import NonPositiveJacobian
from .tensors import (IDENTITY, as_tensor, as_vector, at_points, axial_vector, cross,
                      cross_matrix, det, dot)

DEFAULT_GRADIENT_STEP = 1e-5


def central_difference(fn: Callable[[np.ndarray], object], x, h: float) -> np.ndarray:
    """Central differences of ``fn`` at points ``x`` (3, ...), the derivative index
    right after the component indices.

    For ``fn`` returning shape S + (...) the result has shape S + (3, ...) with
    [..., j, :] = (fn(x + h e_j) - fn(x - h e_j)) / (2 h).
    """
    diffs = []
    for j in range(3):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        diffs.append((np.asarray(fn(xp), float) - np.asarray(fn(xm), float)) / (2.0 * h))
    return np.stack(diffs, axis=diffs[0].ndim + 1 - x.ndim)


def curl_from_gradient(grad_w) -> np.ndarray:
    """curl w as the axial vector of grad w - (grad w)^t, component-major."""
    return axial_vector(grad_w - np.swapaxes(grad_w, 0, 1))


def _constant(value: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``value`` at every point of ``x``, C-contiguous, as ``einsum`` reads fastest."""
    return np.broadcast_to(at_points(value, x), value.shape + x.shape[1:]).copy()


@dataclass(frozen=True)
class Motion:
    """Placement map ``y``: x -> y(x), with optional analytic derivatives.

    ``gradient`` returns F(x); ``second_gradient`` returns dF/dx as a
    (3, 3, 3, ...) array with entries [k, l, j] = d^2 y_k / (d x_l d x_j).
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
        jac = np.ravel(det(f))
        bad = np.flatnonzero(jac <= 0.0)
        if bad.size:
            raise NonPositiveJacobian(
                f"det F = {jac[bad[0]]:g} <= 0 at x = {x.reshape(3, -1)[:, bad[0]]}")
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

def homogeneous_motion(matrix) -> Motion:
    """y = F0 x"""
    f0 = as_tensor(matrix)
    columns = [f0[:, j] for j in range(3)]     # F0 x = sum_j (F0 e_j) x_j, in order
    return Motion(
        y=lambda x: dot([at_points(column, x) for column in columns], x),
        gradient=lambda x: _constant(f0, x),
        second_gradient=lambda x: _constant(np.zeros((3, 3, 3)), x),
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
        x1, x2 = x[0], x[1]
        return x + alpha * np.stack([x1 ** 2 - x2 ** 2, -2.0 * x1 * x2, np.zeros(x1.shape)])

    # the displacement gradient is linear in x: H_kl = second_klj x_j
    second = np.zeros((3, 3, 3))
    second[0, 0, 0] = 2.0
    second[0, 1, 1] = -2.0
    second[1, 0, 1] = -2.0
    second[1, 1, 0] = -2.0
    second *= alpha
    return Motion(placement,
                  gradient=lambda x: (at_points(IDENTITY, x)
                                      + np.einsum("klj,j...->kl...", second, x)),
                  second_gradient=lambda x: _constant(second, x))


def sinusoidal_motion(amplitude: float, wavevector, direction) -> Motion:
    """y = x + a sin(k.x) d"""
    k = as_vector(wavevector)
    d = as_vector(direction)

    def placement(x):
        return x + amplitude * np.sin(dot(k, x)) * at_points(d, x)

    dk = np.outer(d, k)

    def gradient(x):
        return at_points(IDENTITY, x) + amplitude * np.cos(dot(k, x)) * at_points(dk, x)

    dkk = np.einsum("i,j,k->ijk", d, k, k)

    def second_gradient(x):
        return -amplitude * np.sin(dot(k, x)) * at_points(dkk, x)

    return Motion(placement, gradient, second_gradient)


MOTIONS = {"identity": identity_motion, "homogeneous": homogeneous_motion,
           "rotation": rotation_motion, "shear": shear_motion,
           "harmonic": harmonic_motion, "sinusoidal": sinusoidal_motion}


# ---------------------------------------------------------------------------
# Virtual-field presets
# ---------------------------------------------------------------------------

def constant_field(value) -> VirtualField:
    """uniform field"""
    value = as_vector(value)
    return VirtualField(lambda x: _constant(value, x),
                        gradient=lambda x: _constant(np.zeros((3, 3)), x))


def rigid_field(translation, rotation, pivot) -> VirtualField:
    """c + q x (x - x0)"""
    c = as_vector(translation)
    q = as_vector(rotation)
    x0 = as_vector(pivot)
    q_cross = cross_matrix(q)
    return VirtualField(lambda x: at_points(c, x) + cross(q, x - at_points(x0, x)),
                        gradient=lambda x: _constant(q_cross, x))


def affine_field(value, matrix, pivot=None) -> VirtualField:
    """value + A (x - pivot)"""
    c = as_vector(value)
    a = as_tensor(matrix)
    x0 = np.zeros(3) if pivot is None else as_vector(pivot)
    columns = [a[:, j] for j in range(3)]
    return VirtualField(lambda x: at_points(c, x) + dot([at_points(col, x) for col in columns],
                                                        x - at_points(x0, x)),
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
        lambda x: amplitude * np.sin(dot(k, x)) * at_points(d, x),
        gradient=lambda x: amplitude * np.cos(dot(k, x)) * at_points(dk, x),
    )


FIELDS = {"constant": constant_field, "rigid": rigid_field, "linear": linear_field,
          "affine": affine_field, "sinusoidal": sinusoidal_field}
