"""Hyperelastic free-energy densities with analytic stress data.

Every shipped model has an energy that is linear in the two moduli,

    e(x, F) = lam(x) * A(F) + mu(x) * B(F),

which makes the explicit material gradient of the energy (the derivative
in x at frozen F) exactly A * grad lam + B * grad mu.  Inhomogeneity
therefore enters only through position-dependent moduli.  A model derives
what its parts need of F once per array of F (``kinematics``: E and tr E
for StVK, F^-t and ln det F for neo-Hookean), so ``response``, which gives
e, P, de/dx|expl and, along a motion, Div P, takes it once.  F is (3, 3, n),
so each product of tensors is one ``einsum`` over the node axis.

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

from .tensors import (as_vector, at_points, check_finite, cofactor, contract, det, dot,
                      identity_like)


# ---------------------------------------------------------------------------
# Position-dependent moduli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Modulus:
    """A scalar modulus field and its exact gradient over float points (3, ...),
    which neither checks: points are checked where they are made."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    is_constant: bool = False


def constant_modulus(value: float) -> Modulus:
    """uniform modulus"""
    value = float(value)
    return Modulus(lambda x: np.full(x.shape[1:], value),
                   lambda x: np.zeros(x.shape), is_constant=True)


def affine_modulus(value: float, slope) -> Modulus:
    """value + slope . x"""
    value, slope = float(value), as_vector(slope)
    return Modulus(lambda x: value + dot(x, slope),
                   lambda x: np.broadcast_to(at_points(slope, x), x.shape))


def sinusoidal_modulus(value: float, amplitude: float, wavevector) -> Modulus:
    """value + amplitude sin(k . x)"""
    value, amplitude, k = float(value), float(amplitude), as_vector(wavevector)
    return Modulus(lambda x: value + amplitude * np.sin(dot(x, k)),
                   lambda x: amplitude * np.cos(dot(x, k)) * at_points(k, x))


MODULI = {"constant": constant_modulus, "affine": affine_modulus,
          "sinusoidal": sinusoidal_modulus}


# ---------------------------------------------------------------------------
# Material models
# ---------------------------------------------------------------------------

class MaterialModel:
    """Free energy e(x, F) with analytic first Piola-Kirchhoff stress.

    Points x are float (3, ...) arrays and gradients F (3, 3, ...), taken
    unchecked: ``point_state`` checks the state made from them.  det F > 0
    is checked only where F is made (``Motion.deformation_gradient``).
    Subclasses provide the modulus-independent parts from the F-derived
    quantities of :meth:`kinematics`, computed once per F array; this base
    class assembles the response (e, P, de/dx|expl, and Div P) from them.
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

    def response(self, x, f, df_dx=None):
        """(e, P = de/dF, de/dx|expl) at points x, the last the derivative of e in
        x at fixed F.  Given dF/dx = ``df_dx`` (3, 3, 3, ...), x-index third, Div P
        follows from the same parts: dP/dx|F = dA/dF (x) grad lam + dB/dF (x) grad
        mu traced, plus dP/dF[dF/dx_j] e_j summed column by column."""
        kin = self.kinematics(f)
        (a, b), (pa, pb) = self.energy_parts(f, kin), self.stress_parts(f, kin)
        lam, mu = self.lam.value(x), self.mu.value(x)
        grad_lam, grad_mu = self.lam.gradient(x), self.mu.gradient(x)
        values = (np.asarray(lam * a + mu * b), lam * pa + mu * pb,
                  a * grad_lam + b * grad_mu)
        if df_dx is None:
            return values
        # column j of dP/dx|F scaled by d lam/dx_j and d mu/dx_j, added column by column
        explicit = pa * grad_lam[None] + pb * grad_mu[None]
        div_p = explicit[:, 0] + explicit[:, 1] + explicit[:, 2]
        for j in range(3):
            da, db = self.stress_derivative_parts(f, kin, df_dx[:, :, j])
            div_p = div_p + (lam * da[:, j] + mu * db[:, j])
        return values + (div_p,)


class SaintVenantKirchhoff(MaterialModel):
    """Saint Venant-Kirchhoff: lam/2 (tr E)^2 + mu tr(E^2)"""

    name = "stvk"

    def kinematics(self, f):
        """(E, tr E)"""
        e = 0.5 * (np.einsum("ki...,kj...->ij...", f, f) - identity_like(f))
        return e, np.trace(e)

    def energy_parts(self, f, kin):
        e, tr_e = kin
        return 0.5 * tr_e ** 2, contract(e, e)

    def stress_parts(self, f, kin):
        e, tr_e = kin
        return tr_e * f, 2.0 * np.einsum("ik...,kj...->ij...", f, e)

    def stress_derivative_parts(self, f, kin, h):
        e, tr_e = kin
        ft_h = np.einsum("ki...,kj...->ij...", f, h)
        de = 0.5 * (np.swapaxes(ft_h, 0, 1) + ft_h)     # H^t F + F^t H, halved
        return np.trace(de) * f + tr_e * h, 2.0 * (np.einsum("ik...,kj...->ij...", h, e)
                                                   + np.einsum("ik...,kj...->ij...", f, de))


class NeoHookean(MaterialModel):
    """mu/2 (tr C - 3) - mu ln J + lam/2 (ln J)^2"""

    name = "neo_hookean"

    def kinematics(self, f):
        """(F^-t = cof F / det F, ln det F); det F > 0 is checked where F is made."""
        j = det(f)
        return cofactor(f) / j, np.log(j)

    def energy_parts(self, f, kin):
        log_j = kin[1]
        return 0.5 * log_j ** 2, 0.5 * (contract(f, f) - 3.0) - log_j

    def stress_parts(self, f, kin):
        f_inv_t, log_j = kin
        return log_j * f_inv_t, f - f_inv_t

    def stress_derivative_parts(self, f, kin, h):
        # d(F^-t)[H] = -F^-t H^t F^-t ; d(ln J)[H] = F^-t : H
        f_inv_t, log_j = kin
        d_finv_t = -np.einsum("ik...,kj...->ij...",
                              np.einsum("ik...,jk...->ij...", f_inv_t, h), f_inv_t)
        da = contract(f_inv_t, h) * f_inv_t + log_j * d_finv_t
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
        d = f - identity_like(f)
        return np.zeros(f.shape[2:]), 0.5 * contract(d, d)

    def stress_parts(self, f, kin):
        return np.zeros(f.shape), f - identity_like(f)

    def stress_derivative_parts(self, f, kin, h):
        return np.zeros(h.shape), h


MODEL_CLASSES = {
    cls.name: cls for cls in (SaintVenantKirchhoff, NeoHookean, Quadratic)
}


# ---------------------------------------------------------------------------
# Body forces from a potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BodyForcePotential:
    """Potential u(y) over the ambient space with b = -du/dy, over points (3, ...)."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __call__(self, y) -> np.ndarray:
        return check_finite(y, potential=self.value(y))

    def grad(self, y) -> np.ndarray:
        return check_finite(y, potential_gradient=self.gradient(y))


def zero_potential() -> BodyForcePotential:
    """u(y) = 0"""
    return BodyForcePotential(lambda y: np.zeros(y.shape[1:]),
                              lambda y: np.zeros(y.shape))


def linear_potential(gravity) -> BodyForcePotential:
    """u(y) = -g . y"""
    g = as_vector(gravity)
    return BodyForcePotential(lambda y: -dot(g, y),
                              lambda y: np.broadcast_to(at_points(-g, y), y.shape))


POTENTIALS = {"zero": zero_potential, "linear": linear_potential}
