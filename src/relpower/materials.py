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
from .fields import central_difference
from .tensors import IDENTITY, as_tensor, as_vector


# ---------------------------------------------------------------------------
# Position-dependent moduli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Modulus:
    """A scalar modulus field with an exact gradient.

    kinds: ``constant``; ``affine`` value + slope . x; ``sinusoidal``
    value + amplitude * sin(wavevector . x).
    """

    kind: str
    base: float
    slope: Optional[np.ndarray] = None
    amplitude: float = 0.0
    wavevector: Optional[np.ndarray] = None

    def value(self, x) -> float:
        if self.kind == "constant":
            return self.base
        x = as_vector(x)
        if self.kind == "affine":
            return self.base + float(self.slope @ x)
        if self.kind == "sinusoidal":
            return self.base + self.amplitude * np.sin(self.wavevector @ x)
        raise ValueError(f"unknown modulus kind {self.kind!r}")

    def gradient(self, x) -> np.ndarray:
        if self.kind == "constant":
            return np.zeros(3)
        x = as_vector(x)
        if self.kind == "affine":
            return self.slope.copy()
        if self.kind == "sinusoidal":
            return self.amplitude * np.cos(self.wavevector @ x) * self.wavevector
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

class MaterialModel:
    """Free energy e(x, F) with analytic first Piola-Kirchhoff stress.

    Subclasses provide the modulus-independent parts; this base class
    assembles energies, stresses, the fourth-order stress tangent
    dP/dF, and the explicit x-derivatives from them.
    """

    name = "base"
    frame_indifferent = True
    isotropic = True

    def __init__(self, lam: Modulus, mu: Modulus):
        self.lam = lam
        self.mu = mu

    # -- hooks ------------------------------------------------------------

    def energy_parts(self, f: np.ndarray) -> Tuple[float, float]:
        """(A, B) with e = lam A + mu B."""
        raise NotImplementedError

    def stress_parts(self, f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(dA/dF, dB/dF)."""
        raise NotImplementedError

    def tangent_parts(self, f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(d^2A/dF dF, d^2B/dF dF) as (3,3,3,3) arrays [i,j,m,n]."""
        raise NotImplementedError

    # -- assembled quantities ----------------------------------------------

    @property
    def homogeneous(self) -> bool:
        return self.lam.is_constant and self.mu.is_constant

    def _check(self, f) -> np.ndarray:
        f = as_tensor(f)
        det = np.linalg.det(f)
        if det <= 0.0:
            raise NonPositiveJacobian(f"det F = {det:g} <= 0")
        return f

    def energy(self, x, f) -> float:
        f = self._check(f)
        a, b = self.energy_parts(f)
        return self.lam.value(x) * a + self.mu.value(x) * b

    def stress(self, x, f) -> np.ndarray:
        """First Piola-Kirchhoff stress P = dE/dF."""
        f = self._check(f)
        pa, pb = self.stress_parts(f)
        return self.lam.value(x) * pa + self.mu.value(x) * pb

    def material_gradient(self, x, f) -> np.ndarray:
        """Explicit derivative of e in x, holding F fixed."""
        f = self._check(f)
        a, b = self.energy_parts(f)
        return a * self.lam.gradient(x) + b * self.mu.gradient(x)

    def stress_tangent(self, x, f) -> np.ndarray:
        """dP/dF as a (3,3,3,3) array, [i,j,m,n] = dP_ij/dF_mn."""
        f = self._check(f)
        ta, tb = self.tangent_parts(f)
        return self.lam.value(x) * ta + self.mu.value(x) * tb

    def stress_material_gradient(self, x, f) -> np.ndarray:
        """dP/dx at fixed F, as a (3,3,3) array with the x-component last."""
        f = self._check(f)
        pa, pb = self.stress_parts(f)
        return (np.einsum("ij,m->ijm", pa, self.lam.gradient(x))
                + np.einsum("ij,m->ijm", pb, self.mu.gradient(x)))


class SaintVenantKirchhoff(MaterialModel):
    """e = lam/2 (tr E)^2 + mu tr(E^2) with E the Green-Lagrange strain."""

    name = "stvk"
    frame_indifferent = True
    isotropic = True

    def energy_parts(self, f):
        e = 0.5 * (f.T @ f - IDENTITY)
        return 0.5 * np.trace(e) ** 2, float(np.sum(e * e))

    def stress_parts(self, f):
        e = 0.5 * (f.T @ f - IDENTITY)
        return np.trace(e) * f, 2.0 * f @ e

    def tangent_parts(self, f):
        e = 0.5 * (f.T @ f - IDENTITY)
        b = f @ f.T
        ta = (np.einsum("im,nj->ijmn", IDENTITY, np.trace(e) * IDENTITY)
              + np.einsum("ij,mn->ijmn", f, f))
        tb = (2.0 * np.einsum("im,nj->ijmn", IDENTITY, e)
              + np.einsum("in,mj->ijmn", f, f)
              + np.einsum("im,jn->ijmn", b, IDENTITY))
        return ta, tb


class NeoHookean(MaterialModel):
    """Compressible neo-Hookean: e = mu/2 (tr C - 3) - mu ln J + lam/2 (ln J)^2."""

    name = "neo_hookean"
    frame_indifferent = True
    isotropic = True

    def energy_parts(self, f):
        log_j = np.log(np.linalg.det(f))
        return 0.5 * log_j ** 2, 0.5 * (np.trace(f.T @ f) - 3.0) - log_j

    def stress_parts(self, f):
        f_inv = np.linalg.inv(f)
        f_inv_t = f_inv.T
        log_j = np.log(np.linalg.det(f))
        return log_j * f_inv_t, f - f_inv_t

    def tangent_parts(self, f):
        f_inv = np.linalg.inv(f)
        log_j = np.log(np.linalg.det(f))
        # d(F^-t)_ij / dF_mn = -Finv_jm Finv_ni ; d(ln J)/dF_mn = Finv_nm
        d_finv_t = -np.einsum("jm,ni->ijmn", f_inv, f_inv)
        ta = np.einsum("nm,ji->ijmn", f_inv, f_inv) + log_j * d_finv_t
        tb = np.einsum("im,jn->ijmn", IDENTITY, IDENTITY) - d_finv_t
        return ta, tb


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
        return 0.0, 0.5 * float(np.sum(d * d))

    def stress_parts(self, f):
        return np.zeros((3, 3)), f - IDENTITY

    def tangent_parts(self, f):
        return np.zeros((3, 3, 3, 3)), np.einsum("im,jn->ijmn", IDENTITY, IDENTITY)


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
    """Potential u(y) over the ambient space with b = -du/dy."""

    name: str
    value: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    step: float = 1e-5

    def __call__(self, y) -> float:
        return float(self.value(as_vector(y)))

    def grad(self, y) -> np.ndarray:
        if self.gradient is not None:
            return as_vector(self.gradient(as_vector(y)))
        return central_difference(self.value, as_vector(y), self.step)


def zero_potential() -> BodyForcePotential:
    return BodyForcePotential("zero", lambda y: 0.0, lambda y: np.zeros(3))


def linear_potential(gravity) -> BodyForcePotential:
    """u(y) = -g . y, so the body force is the constant g."""
    g = as_vector(gravity)
    return BodyForcePotential("linear", lambda y: -float(g @ y), lambda y: -g)
