"""Hyperelastic free-energy densities with analytic stress data.

Every shipped model has an energy that is linear in the two moduli,

    e(x, F) = lam(x) * A(F) + mu(x) * B(F),

which makes the explicit material gradient of the energy (the derivative
in x at frozen F) exactly A * grad lam + B * grad mu.  Inhomogeneity
therefore enters only through position-dependent moduli.

Shipped models:

* ``stvk``         Saint Venant-Kirchhoff,
                   e = lam/2 (tr E)^2 + mu tr(E^2),  E = (F^t F - I)/2
* ``neo_hookean``  compressible neo-Hookean,
                   e = mu/2 (tr(F^t F) - 3) - mu ln J + lam/2 (ln J)^2
* ``quadratic``    e = mu/2 |F - I|^2; not frame indifferent, kept because
                   harmonic displacements give exact equilibria for it
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .exceptions import NonPositiveJacobian
from .tensors import IDENTITY, as_tensor, as_vector, dot, transpose


# ---------------------------------------------------------------------------
# Position-dependent moduli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Modulus:
    """A scalar modulus field with an exact gradient, over points (..., 3).

    kinds: ``constant``; ``affine`` value + slope . x; ``sinusoidal``
    value + amplitude * sin(wavevector . x).
    """

    kind: str
    base: float
    slope: Optional[np.ndarray] = None
    amplitude: float = 0.0
    wavevector: Optional[np.ndarray] = None

    def value(self, x) -> np.ndarray:
        x = as_vector(x)
        if self.kind == "constant":
            return np.full(x.shape[:-1], self.base)
        if self.kind == "affine":
            return self.base + dot(x, self.slope)
        if self.kind == "sinusoidal":
            return self.base + self.amplitude * np.sin(dot(x, self.wavevector))
        raise ValueError(f"unknown modulus kind {self.kind!r}")

    def gradient(self, x) -> np.ndarray:
        x = as_vector(x)
        if self.kind == "constant":
            return np.zeros(x.shape)
        if self.kind == "affine":
            return np.broadcast_to(self.slope, x.shape)
        if self.kind == "sinusoidal":
            slope = self.amplitude * np.cos(dot(x, self.wavevector))
            return slope[..., None] * self.wavevector
        raise ValueError(f"unknown modulus kind {self.kind!r}")

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"


def constant_modulus(value: float) -> Modulus:
    return Modulus("constant", float(value))


def affine_modulus(value: float, slope) -> Modulus:
    return Modulus("affine", float(value), slope=as_vector(slope))


def sinusoidal_modulus(value: float, amplitude: float, wavevector) -> Modulus:
    return Modulus("sinusoidal", float(value), amplitude=float(amplitude),
                   wavevector=as_vector(wavevector))


# ---------------------------------------------------------------------------
# Material models
# ---------------------------------------------------------------------------

def _tensor_factor(scalar) -> np.ndarray:
    """A per-point scalar shaped to scale a stack of tensors."""
    return np.asarray(scalar)[..., None, None]


class MaterialModel:
    """Free energy e(x, F) with analytic first Piola-Kirchhoff stress.

    Points x are (..., 3); gradients F are (..., 3, 3), checked for
    finiteness once per call.  det F > 0 is checked where F is made and
    by the models that take ln det F.  Subclasses provide the
    modulus-independent parts; this base class assembles energies,
    stresses, the directional stress derivative dP/dF[H] and the
    explicit x-derivatives from them.
    """

    name = "base"
    frame_indifferent = True
    isotropic = True

    def __init__(self, lam: Modulus, mu: Modulus):
        self.lam = lam
        self.mu = mu

    # -- hooks ------------------------------------------------------------

    def energy_parts(self, f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(A, B) with e = lam A + mu B."""
        raise NotImplementedError

    def stress_parts(self, f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(dA/dF, dB/dF)."""
        raise NotImplementedError

    def stress_derivative_parts(self, f: np.ndarray,
                                h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(d^2A/dF dF [H], d^2B/dF dF [H]): the stress parts differentiated
        along the direction H."""
        raise NotImplementedError

    # -- assembled quantities ----------------------------------------------

    @property
    def homogeneous(self) -> bool:
        return self.lam.is_constant and self.mu.is_constant

    def energy(self, x, f) -> np.ndarray:
        f = as_tensor(f)
        a, b = self.energy_parts(f)
        return self.lam.value(x) * a + self.mu.value(x) * b

    def stress(self, x, f) -> np.ndarray:
        """First Piola-Kirchhoff stress P = dE/dF."""
        f = as_tensor(f)
        pa, pb = self.stress_parts(f)
        return (_tensor_factor(self.lam.value(x)) * pa
                + _tensor_factor(self.mu.value(x)) * pb)

    def material_gradient(self, x, f) -> np.ndarray:
        """Explicit derivative of e in x, holding F fixed."""
        f = as_tensor(f)
        a, b = self.energy_parts(f)
        return (np.asarray(a)[..., None] * self.lam.gradient(x)
                + np.asarray(b)[..., None] * self.mu.gradient(x))

    def stress_derivative(self, x, f, h) -> np.ndarray:
        """dP/dF[H] = d/dt P(x, F + t H) at t = 0."""
        f = as_tensor(f)
        da, db = self.stress_derivative_parts(f, as_tensor(h))
        return (_tensor_factor(self.lam.value(x)) * da
                + _tensor_factor(self.mu.value(x)) * db)

    def stress_material_gradient(self, x, f) -> np.ndarray:
        """dP/dx at fixed F, as a (..., 3, 3, 3) array with the x-component last."""
        f = as_tensor(f)
        pa, pb = self.stress_parts(f)
        return (np.einsum("...ij,...m->...ijm", pa, self.lam.gradient(x))
                + np.einsum("...ij,...m->...ijm", pb, self.mu.gradient(x)))


class SaintVenantKirchhoff(MaterialModel):
    """e = lam/2 (tr E)^2 + mu tr(E^2) with E the Green-Lagrange strain."""

    name = "stvk"
    frame_indifferent = True
    isotropic = True

    @staticmethod
    def _strain(f):
        return 0.5 * (transpose(f) @ f - IDENTITY)

    def energy_parts(self, f):
        e = self._strain(f)
        return 0.5 * np.trace(e, axis1=-2, axis2=-1) ** 2, np.sum(e * e, axis=(-2, -1))

    def stress_parts(self, f):
        e = self._strain(f)
        return _tensor_factor(np.trace(e, axis1=-2, axis2=-1)) * f, 2.0 * f @ e

    def stress_derivative_parts(self, f, h):
        e = self._strain(f)
        de = 0.5 * (transpose(h) @ f + transpose(f) @ h)
        da = (_tensor_factor(np.trace(de, axis1=-2, axis2=-1)) * f
              + _tensor_factor(np.trace(e, axis1=-2, axis2=-1)) * h)
        return da, 2.0 * (h @ e + f @ de)


class NeoHookean(MaterialModel):
    """Compressible neo-Hookean: e = mu/2 (tr C - 3) - mu ln J + lam/2 (ln J)^2."""

    name = "neo_hookean"
    frame_indifferent = True
    isotropic = True

    @staticmethod
    def _log_det(f):
        """ln det F, raising :class:`NonPositiveJacobian` unless det F > 0."""
        det = np.linalg.det(f)
        if np.any(det <= 0.0):
            raise NonPositiveJacobian(f"det F = {np.min(det):g} <= 0")
        return np.log(det)

    def energy_parts(self, f):
        log_j = self._log_det(f)
        tr_c = np.trace(transpose(f) @ f, axis1=-2, axis2=-1)
        return 0.5 * log_j ** 2, 0.5 * (tr_c - 3.0) - log_j

    def stress_parts(self, f):
        f_inv_t = transpose(np.linalg.inv(f))
        log_j = self._log_det(f)
        return _tensor_factor(log_j) * f_inv_t, f - f_inv_t

    def stress_derivative_parts(self, f, h):
        # d(F^-t)[H] = -F^-t H^t F^-t ; d(ln J)[H] = F^-t : H
        f_inv_t = transpose(np.linalg.inv(f))
        log_j = self._log_det(f)
        d_finv_t = -(f_inv_t @ transpose(h) @ f_inv_t)
        da = (_tensor_factor(np.sum(f_inv_t * h, axis=(-2, -1))) * f_inv_t
              + _tensor_factor(log_j) * d_finv_t)
        return da, h - d_finv_t


class Quadratic(MaterialModel):
    """e = mu/2 |F - I|^2.

    Not frame indifferent and not isotropic; its equilibria are exactly
    the displacements with vanishing Laplacian, which is what the
    surface-independence and conservation-law scenarios need.
    """

    name = "quadratic"
    frame_indifferent = False
    isotropic = False

    def energy_parts(self, f):
        d = f - IDENTITY
        return np.zeros(f.shape[:-2]), 0.5 * np.sum(d * d, axis=(-2, -1))

    def stress_parts(self, f):
        return np.zeros(f.shape), f - IDENTITY

    def stress_derivative_parts(self, f, h):
        return np.zeros(h.shape), h


MODEL_CLASSES = {
    cls.name: cls for cls in (SaintVenantKirchhoff, NeoHookean, Quadratic)
}


def make_material(name: str, lam: Modulus, mu: Modulus) -> MaterialModel:
    try:
        cls = MODEL_CLASSES[name]
    except KeyError:
        raise ValueError(f"unknown material model {name!r}") from None
    return cls(lam, mu)


# ---------------------------------------------------------------------------
# Body forces from a potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BodyForcePotential:
    """Potential u(y) over the ambient space with b = -du/dy, over points (..., 3)."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __call__(self, y) -> np.ndarray:
        return self.value(as_vector(y))

    def grad(self, y) -> np.ndarray:
        return as_vector(self.gradient(as_vector(y)))


def zero_potential() -> BodyForcePotential:
    return BodyForcePotential("zero", lambda y: np.zeros(y.shape[:-1]),
                              lambda y: np.zeros(y.shape))


def linear_potential(gravity) -> BodyForcePotential:
    """u(y) = -g . y, so the body force is the constant g."""
    g = as_vector(gravity)
    return BodyForcePotential("linear", lambda y: -dot(g, y),
                              lambda y: np.broadcast_to(-g, y.shape))
