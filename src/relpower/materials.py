"""Hyperelastic free-energy densities with analytic stress data.

Every shipped model has an energy that is linear in the two moduli,

    e(x, F) = lam(x) * A(F) + mu(x) * B(F),

which makes the explicit material gradient of the energy (the derivative
in x at frozen F) exactly A * grad lam + B * grad mu.  Inhomogeneity
therefore enters only through position-dependent moduli.  A model derives
what its parts need of F once per array of F (``kinematics``: E and tr E
for StVK, F^-t and ln det F for neo-Hookean), so ``response``, which gives
e, P and de/dx|expl, and ``div_stress`` each take it once.

The presets are tabled by config name: models in ``MODEL_CLASSES``
(Saint Venant-Kirchhoff ``stvk``, compressible ``neo_hookean`` and the
not frame-indifferent ``quadratic``, kept because harmonic displacements
give exact equilibria for it), moduli in ``MODULI`` and body-force
potentials in ``POTENTIALS``.  A constructor's parameters are the config
keys of its preset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .exceptions import NonPositiveJacobian
from .tensors import IDENTITY, as_vector, check_finite, dot, transpose


# ---------------------------------------------------------------------------
# Position-dependent moduli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Modulus:
    """A scalar modulus field and its exact gradient over float points (..., 3),
    which neither checks: points are checked where they are made."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    is_constant: bool = False


def constant_modulus(value: float) -> Modulus:
    """uniform modulus"""
    value = float(value)
    return Modulus(lambda x: np.full(x.shape[:-1], value),
                   lambda x: np.zeros(x.shape), is_constant=True)


def affine_modulus(value: float, slope) -> Modulus:
    """value + slope . x"""
    value, slope = float(value), as_vector(slope)
    return Modulus(lambda x: value + dot(x, slope),
                   lambda x: np.broadcast_to(slope, x.shape))


def sinusoidal_modulus(value: float, amplitude: float, wavevector) -> Modulus:
    """value + amplitude sin(k . x)"""
    value, amplitude, k = float(value), float(amplitude), as_vector(wavevector)
    return Modulus(lambda x: value + amplitude * np.sin(dot(x, k)),
                   lambda x: (amplitude * np.cos(dot(x, k)))[..., None] * k)


MODULI = {"constant": constant_modulus, "affine": affine_modulus,
          "sinusoidal": sinusoidal_modulus}


# ---------------------------------------------------------------------------
# Material models
# ---------------------------------------------------------------------------

def _tensor_factor(scalar) -> np.ndarray:
    """A per-point scalar shaped to scale a stack of tensors."""
    return np.asarray(scalar)[..., None, None]


class MaterialModel:
    """Free energy e(x, F) with analytic first Piola-Kirchhoff stress.

    Points x are float (..., 3) arrays and gradients F (..., 3, 3), taken
    unchecked: ``point_state`` checks the state made from them.  det F > 0
    is checked where F is made and by the models that take ln det F.
    Subclasses provide the modulus-independent parts from the F-derived
    quantities of :meth:`kinematics`, computed once per F array; this base
    class assembles the response (e, P, de/dx|expl) and Div P from them.
    """

    name = "base"
    isotropic = True

    def __init__(self, lam: Modulus, mu: Modulus):
        self.lam = lam
        self.mu = mu

    # -- hooks ------------------------------------------------------------

    def kinematics(self, f: np.ndarray):
        """The F-derived quantities the other hooks share; none by default."""
        return None

    def energy_parts(self, f: np.ndarray, kin) -> Tuple[np.ndarray, np.ndarray]:
        """(A, B) with e = lam A + mu B."""
        raise NotImplementedError

    def stress_parts(self, f: np.ndarray, kin) -> Tuple[np.ndarray, np.ndarray]:
        """(dA/dF, dB/dF)."""
        raise NotImplementedError

    def stress_derivative_parts(self, f: np.ndarray, kin,
                                h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(d^2A/dF dF [H], d^2B/dF dF [H]): the stress parts differentiated
        along the direction H."""
        raise NotImplementedError

    # -- assembled quantities ----------------------------------------------

    @property
    def homogeneous(self) -> bool:
        return self.lam.is_constant and self.mu.is_constant

    def response(self, x, f) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(e, P = de/dF, de/dx|expl) at points x, the last the derivative of e
        in x at fixed F."""
        kin = self.kinematics(f)
        a, b = self.energy_parts(f, kin)
        pa, pb = self.stress_parts(f, kin)
        lam, mu = self.lam.value(x), self.mu.value(x)
        return (np.asarray(lam * a + mu * b),
                _tensor_factor(lam) * pa + _tensor_factor(mu) * pb,
                (np.asarray(a)[..., None] * self.lam.gradient(x)
                 + np.asarray(b)[..., None] * self.mu.gradient(x)))

    def div_stress(self, x, f, df_dx) -> np.ndarray:
        """Div P along a motion with dF/dx = ``df_dx`` (..., 3, 3, 3), the x-index
        last: dP/dx|F = dA/dF (x) grad lam + dB/dF (x) grad mu traced, plus
        dP/dF[dF/dx_j] e_j summed column by column."""
        kin = self.kinematics(f)
        pa, pb = self.stress_parts(f, kin)
        lam, mu = _tensor_factor(self.lam.value(x)), _tensor_factor(self.mu.value(x))
        # np.sum adds left to right; einsum("...ij->...i") rounds in another order
        div_p = np.sum(pa * self.lam.gradient(x)[..., None, :]
                       + pb * self.mu.gradient(x)[..., None, :], axis=-1)
        for j in range(3):
            da, db = self.stress_derivative_parts(f, kin, df_dx[..., j])
            div_p = div_p + (lam * da + mu * db)[..., :, j]
        return div_p


class SaintVenantKirchhoff(MaterialModel):
    """Saint Venant-Kirchhoff: lam/2 (tr E)^2 + mu tr(E^2)"""

    name = "stvk"

    def kinematics(self, f):
        """(E, tr E)"""
        e = 0.5 * (transpose(f) @ f - IDENTITY)
        return e, np.trace(e, axis1=-2, axis2=-1)

    def energy_parts(self, f, kin):
        e, tr_e = kin
        return 0.5 * tr_e ** 2, np.sum(e * e, axis=(-2, -1))

    def stress_parts(self, f, kin):
        e, tr_e = kin
        return _tensor_factor(tr_e) * f, 2.0 * f @ e

    def stress_derivative_parts(self, f, kin, h):
        e, tr_e = kin
        de = 0.5 * (transpose(h) @ f + transpose(f) @ h)
        da = (_tensor_factor(np.trace(de, axis1=-2, axis2=-1)) * f
              + _tensor_factor(tr_e) * h)
        return da, 2.0 * (h @ e + f @ de)


class NeoHookean(MaterialModel):
    """mu/2 (tr C - 3) - mu ln J + lam/2 (ln J)^2"""

    name = "neo_hookean"

    def kinematics(self, f):
        """(F^-t, ln det F), raising :class:`NonPositiveJacobian` unless det F > 0."""
        det = np.linalg.det(f)
        if np.any(det <= 0.0):
            raise NonPositiveJacobian(f"det F = {np.min(det):g} <= 0")
        return transpose(np.linalg.inv(f)), np.log(det)

    def energy_parts(self, f, kin):
        log_j = kin[1]
        tr_c = np.trace(transpose(f) @ f, axis1=-2, axis2=-1)
        return 0.5 * log_j ** 2, 0.5 * (tr_c - 3.0) - log_j

    def stress_parts(self, f, kin):
        f_inv_t, log_j = kin
        return _tensor_factor(log_j) * f_inv_t, f - f_inv_t

    def stress_derivative_parts(self, f, kin, h):
        # d(F^-t)[H] = -F^-t H^t F^-t ; d(ln J)[H] = F^-t : H
        f_inv_t, log_j = kin
        d_finv_t = -(f_inv_t @ transpose(h) @ f_inv_t)
        da = (_tensor_factor(np.sum(f_inv_t * h, axis=(-2, -1))) * f_inv_t
              + _tensor_factor(log_j) * d_finv_t)
        return da, h - d_finv_t


class Quadratic(MaterialModel):
    """mu/2 |F - I|^2 (not frame indifferent)

    Not isotropic either, and lam plays no part; its equilibria are exactly
    the displacements with vanishing Laplacian, which is what the
    surface-independence and conservation-law scenarios need.
    """

    name = "quadratic"
    isotropic = False

    def energy_parts(self, f, kin):
        d = f - IDENTITY
        return np.zeros(f.shape[:-2]), 0.5 * np.sum(d * d, axis=(-2, -1))

    def stress_parts(self, f, kin):
        return np.zeros(f.shape), f - IDENTITY

    def stress_derivative_parts(self, f, kin, h):
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

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __call__(self, y) -> np.ndarray:
        return check_finite(y, potential=self.value(y))

    def grad(self, y) -> np.ndarray:
        return check_finite(y, potential_gradient=self.gradient(y))


def zero_potential() -> BodyForcePotential:
    """u(y) = 0"""
    return BodyForcePotential(lambda y: np.zeros(y.shape[:-1]),
                              lambda y: np.zeros(y.shape))


def linear_potential(gravity) -> BodyForcePotential:
    """u(y) = -g . y"""
    g = as_vector(gravity)
    return BodyForcePotential(lambda y: -dot(g, y),
                              lambda y: np.broadcast_to(-g, y.shape))


POTENTIALS = {"zero": zero_potential, "linear": linear_potential}
