"""Motions, virtual velocity fields and isometric observer changes.

A :class:`Motion` maps reference points to ambient points.  Virtual
velocity fields come in pairs: ``v`` acts over the ambient space and
``w`` over the material (reference) space; both are functions of the
reference point.  Every map takes points of shape (..., 3), a single
point or a stack of them, and returns values with the same leading
axes.  Observer changes superpose rigid rates on either field
independently (on sampled pairs, :meth:`PairSamples.shifted` in
:mod:`relpower.functionals` applies them):

    v* = c_hat + q_hat x (y - y0) + v
    w* = c + q x (x - x0) + w

Every preset carries analytic derivatives.  An object whose
``gradient`` is ``None`` takes that derivative by central finite
differences instead; a scenario in ``fd`` derivative mode builds its
motion and virtual fields with these callables removed, so the mode is
chosen once, where the objects are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .exceptions import NonPositiveJacobian
from .tensors import (IDENTITY, as_tensor, as_vector, axial_vector, cross_matrix,
                      dot, matvec, transpose)

DEFAULT_GRADIENT_STEP = 1e-5


def central_difference(fn: Callable[[np.ndarray], object], x, h: float) -> np.ndarray:
    """Central differences of ``fn`` at points ``x`` (..., 3), derivative index last.

    For ``fn`` returning shape (...,) + S the result has shape (...,) + S + (3,)
    with [..., j] = (fn(x + h e_j) - fn(x - h e_j)) / (2 h).
    """
    x = as_vector(x)
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
    """curl w as the axial vector of grad w - (grad w)^t."""
    g = as_tensor(grad_w)
    return axial_vector(g - transpose(g))


def _constant(value: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``value`` at every point of ``x``, as a read-only view."""
    return np.broadcast_to(value, x.shape[:-1] + value.shape)


@dataclass(frozen=True)
class Motion:
    """Placement map x -> y(x) with optional analytic derivatives.

    ``gradient`` returns F(x); ``second_gradient`` returns dF/dx as a
    (..., 3, 3, 3) array with entries [..., k, l, j] = d^2 y_k / (d x_l d x_j).
    ``step`` is the finite-difference step used when ``gradient`` is absent.
    """

    name: str
    placement: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    second_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    step: float = DEFAULT_GRADIENT_STEP

    def y(self, x) -> np.ndarray:
        return as_vector(self.placement(as_vector(x)))

    def deformation_gradient(self, x, use_analytic: bool = True) -> np.ndarray:
        """F(x) = Dy(x); raises :class:`NonPositiveJacobian` unless det F > 0
        at every point."""
        x = as_vector(x)
        if use_analytic and self.gradient is not None:
            f = as_tensor(self.gradient(x))
        else:
            f = central_difference(self.placement, x, self.step)
        det = np.ravel(np.linalg.det(f))
        bad = np.flatnonzero(det <= 0.0)
        if bad.size:
            i = bad[0]
            raise NonPositiveJacobian(
                f"det F = {det[i]:g} <= 0 at x = {x.reshape(-1, 3)[i]}")
        return f


@dataclass(frozen=True)
class VirtualField:
    """A differentiable vector field over the reference place."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    step: float = DEFAULT_GRADIENT_STEP

    def __call__(self, x) -> np.ndarray:
        return as_vector(self.value(as_vector(x)))

    def grad(self, x) -> np.ndarray:
        if self.gradient is not None:
            return as_tensor(self.gradient(as_vector(x)))
        return central_difference(self.value, as_vector(x), self.step)

    def curl(self, x) -> np.ndarray:
        return curl_from_gradient(self.grad(x))

    def divergence(self, x) -> np.ndarray:
        return np.trace(self.grad(x), axis1=-2, axis2=-1)


@dataclass(frozen=True)
class VirtualFieldPair:
    """Ambient field v and material field w, evaluated over the body."""

    v: VirtualField
    w: VirtualField


@dataclass(frozen=True)
class ObserverChange:
    """Generators of one synchronous isometric change in observers."""

    ambient_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ambient_rotation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ambient_pivot: np.ndarray = field(default_factory=lambda: np.zeros(3))
    material_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    material_rotation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    material_pivot: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in (
            "ambient_translation", "ambient_rotation", "ambient_pivot",
            "material_translation", "material_rotation", "material_pivot",
        ):
            object.__setattr__(self, name, as_vector(getattr(self, name)))


# ---------------------------------------------------------------------------
# Motion presets
# ---------------------------------------------------------------------------

_NO_SECOND_GRADIENT = np.zeros((3, 3, 3))


def identity_motion(step: float = DEFAULT_GRADIENT_STEP) -> Motion:
    """y = x."""
    return Motion(
        "identity",
        placement=lambda x: x.copy(),
        gradient=lambda x: _constant(IDENTITY, x),
        second_gradient=lambda x: _constant(_NO_SECOND_GRADIENT, x),
        step=step,
    )


def homogeneous_motion(f0, step: float = DEFAULT_GRADIENT_STEP) -> Motion:
    """y = F0 x for a constant matrix F0."""
    f0 = as_tensor(f0)
    return Motion(
        "homogeneous",
        placement=lambda x: matvec(f0, x),
        gradient=lambda x: _constant(f0, x),
        second_gradient=lambda x: _constant(_NO_SECOND_GRADIENT, x),
        step=step,
    )


def rotation_motion(axis, angle: float, step: float = DEFAULT_GRADIENT_STEP) -> Motion:
    """Rigid rotation y = R x about ``axis`` by ``angle`` (Rodrigues form)."""
    axis = as_vector(axis)
    if not np.any(axis):
        raise ValueError("rotation axis must be nonzero")
    n = axis / np.linalg.norm(axis)
    k = cross_matrix(n)
    r = IDENTITY + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    motion = homogeneous_motion(r, step=step)
    return Motion("rotation", motion.placement, motion.gradient,
                  motion.second_gradient, step=step)


def shear_motion(gamma: float, step: float = DEFAULT_GRADIENT_STEP) -> Motion:
    """Simple shear y = x + gamma * x_2 * e_1."""
    f0 = IDENTITY + gamma * np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    motion = homogeneous_motion(f0, step=step)
    return Motion("shear", motion.placement, motion.gradient,
                  motion.second_gradient, step=step)


def harmonic_motion(alpha: float, step: float = DEFAULT_GRADIENT_STEP) -> Motion:
    """y = x + alpha * (x1^2 - x2^2, -2 x1 x2, 0).

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
    return Motion("harmonic", placement,
                  gradient=lambda x: IDENTITY + np.einsum("klj,...j->...kl", second, x),
                  second_gradient=lambda x: _constant(second, x), step=step)


def sinusoidal_motion(amplitude: float, wavevector, direction,
                      step: float = DEFAULT_GRADIENT_STEP) -> Motion:
    """y = x + a sin(k . x) d."""
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

    return Motion("sinusoidal", placement, gradient, second_gradient, step=step)


# ---------------------------------------------------------------------------
# Virtual-field presets
# ---------------------------------------------------------------------------

_ZERO_GRADIENT = np.zeros((3, 3))


def constant_field(value, name: str = "constant",
                   step: float = DEFAULT_GRADIENT_STEP) -> VirtualField:
    value = as_vector(value)
    return VirtualField(name, lambda x: _constant(value, x),
                        gradient=lambda x: _constant(_ZERO_GRADIENT, x), step=step)


def rigid_field(translation, rotation, pivot, name: str = "rigid",
                step: float = DEFAULT_GRADIENT_STEP) -> VirtualField:
    """c + q x (x - x0): the Killing fields of the Euclidean metric."""
    c = as_vector(translation)
    q = as_vector(rotation)
    x0 = as_vector(pivot)
    q_cross = cross_matrix(q)
    return VirtualField(name, lambda x: c + np.cross(q, x - x0),
                        gradient=lambda x: _constant(q_cross, x), step=step)


def linear_field(matrix, name: str = "linear",
                 step: float = DEFAULT_GRADIENT_STEP) -> VirtualField:
    a = as_tensor(matrix)
    return VirtualField(name, lambda x: matvec(a, x),
                        gradient=lambda x: _constant(a, x), step=step)


def affine_field(value, matrix, pivot=None, name: str = "affine",
                 step: float = DEFAULT_GRADIENT_STEP) -> VirtualField:
    """value + A (x - pivot)."""
    c = as_vector(value)
    a = as_tensor(matrix)
    x0 = np.zeros(3) if pivot is None else as_vector(pivot)
    return VirtualField(name, lambda x: c + matvec(a, x - x0),
                        gradient=lambda x: _constant(a, x), step=step)


def sinusoidal_field(amplitude: float, wavevector, direction, name: str = "sinusoidal",
                     step: float = DEFAULT_GRADIENT_STEP) -> VirtualField:
    """a sin(k . x) d; curl-free exactly when d is parallel to k."""
    k = as_vector(wavevector)
    d = as_vector(direction)
    dk = np.outer(d, k)
    return VirtualField(
        name,
        lambda x: (amplitude * np.sin(dot(k, x)))[..., None] * d,
        gradient=lambda x: (amplitude * np.cos(dot(k, x)))[..., None, None] * dk,
        step=step,
    )
