"""The relative-power functional, its inner form and the integral balances.

The relative power of a part for the pair (v, w) is evaluated literally:

    P_rel(v, w) = P_act(v, w) + P_dis(v, w)

    P_act = int_b  b . (v - F w) dx  +  int_db  Pn . (v - F w) dA
    P_dis = int_db (n . w) e dA  +  int_b (de/dx|expl - f) . w dx
          - 1/2 int_b mu . curl w dx

The inner form is

    P_inn = int_b ( P . grad v + PP . grad w - 1/2 mu . curl w ) dx

and the four integral balances of the same part, about the pivots y0 and
x0 (X = x - x0), are

    R1 = int_b b dx + int_db Pn dA
    R2 = int_b (y - y0) x b dx + int_db (y - y0) x Pn dA
    R3 = int_b g dx + int_db PP n dA,        g = de/dx|expl - f - F^t b
    R4 = int_b (X x g - mu) dx + int_db X x PP n dA

so R4 is the moment of R3's rows plus the couple, as R2 is of R1's.

Why these weights.  Let the literal form carry (de/dx|expl - f) .
(w - kappa curl w x X) and both forms kappa_c mu . curl w, and let the
inner form carry - s (de/dx|expl - f) . (Skw grad w) X.  An observer
change v* = v + c_hat + q_hat x (y - y0), w* = w + c + q x X (so
curl w* = curl w + 2 q) moves P_rel by R1 . c_hat + R2 . q_hat + R3 . c
+ Q . q, with

    Q = int_db X x PP n dA - int_b X x F^t b dx
        + (1 - 2 kappa) int_b X x (de/dx|expl - f) dx + 2 kappa_c int_b mu dx,

and under closure P_rel - P_inn = (s - 2 kappa) int_b (de/dx|expl - f) .
(Skw grad w) X dx, where kappa_c cancels.  Three requirements fix the
weights:

  1. P_rel = P_inn for every w: s = 2 kappa.
  2. Q is a torque, so Q(x0 + d) = Q(x0) - d x R3: the moment of every
     row of R3 must carry weight 1, so kappa = 0 and s = 0.
  3. Under closure (b = -Div P, f = Div PP + F^t Div P + de/dx|expl,
     mu = axial(2 Skw PP)) Q vanishes as the quadrature is refined.  Then
     g = -Div PP, and the divergence theorem gives int_db X x PP n dA =
     int_b (X x Div PP + mu) dx, so Q -> (1 + 2 kappa_c) int_b mu dx, and
     kappa_c = -1/2.

With these weights Q is R4, so every coefficient of the defect is a
balance residual, R1..R4 in ``GENERATOR_SLOTS`` order.  The
decomposition below extracts the coefficients by brute force, for the
caller to set against the independently integrated residuals.  The 14
observer changes (12 unit generators, 2 random combinations) are one
(14, 4, 3) array of generators, evaluated in chunks of about
``CHUNK_ROWS`` volume rows, each chunk re-evaluating only the pieces that
read a field it moves; the base power comes from the caller.

Every integrand is evaluated at once over the node arrays of the
scenario's part (the points, the traction P n and the pair's samples
among them), built once with the scenario, component-major, vectors (3, n)
and tensors (3, 3, n), so this module only combines rows, each contraction
one ``einsum`` over the node axis.  Every identity (R1..R4, the standard
external power, ``PowerBreakdown.total``, the power of each observer
change, the Noether flux balance) is one ``part_integral``: one
``weighted_fsum`` over its volume rows, then its surface rows, so each
defect subtracts two totals summed alike.  Only the report pieces of
``power.csv`` are summed apart.  P n and PP n are node data too
(``traction`` and ``config_traction``), so R3's boundary rows are the
ones the surface-independence check of ``cli`` sums over each sphere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, NamedTuple

import numpy as np

from . import configurational as conf
from .exceptions import NonAffineDefect, PreconditionViolated
from .geometry import weighted_fsum
from .scenarios import Scenario
from .tensors import contract, cross


# the generators of an observer change: (c_hat, q_hat, c, q), rows of a (4, 3)
# array, or of a (k, 4, 3) stack of k changes
GENERATOR_SLOTS = (
    "ambient_translation",
    "ambient_rotation",
    "material_translation",
    "material_rotation",
)

AFFINE_TOLERANCE = 1e-10   # the defect is affine by construction: above it is a bug
CHUNK_ROWS = 1024          # shifted volume rows per chunk of observer changes


@dataclass(frozen=True)
class PowerBreakdown:
    """The five pieces of one relative-power evaluation, and its total."""

    actions_volume: float
    actions_surface: float
    energy_flux: float
    inhomogeneity: float
    couple: float
    total: float

    @property
    def actions(self) -> float:
        return self.actions_volume + self.actions_surface

    @property
    def disarrangement(self) -> float:
        return self.energy_flux + self.inhomogeneity + self.couple

    @property
    def scale(self) -> float:
        return max(1.0, abs(self.actions), abs(self.disarrangement))


def part_integral(scenario: Scenario, volume_rows, surface_rows):
    """int_b volume_rows dx + int_db surface_rows dA as one ``weighted_fsum`` over
    the volume nodes, then the surface nodes; the node axis of the rows is last."""
    vol, surf = scenario.volume_data, scenario.surface_data
    return weighted_fsum(np.concatenate([volume_rows, surface_rows], axis=-1),
                         np.concatenate([vol.weights, surf.weights]))


def pair_rows(scenario: Scenario, generators=None):
    """The pair's node rows: v at the volume and surface nodes, then w at both,
    then curl w at the volume nodes, each (3, n) for n nodes.

    Generators (4, 3), in ``GENERATOR_SLOTS`` order, give the rows of (v*, w*)
    about the scenario's pivots y0 and x0, and a stack (k, 4, 3) of them rows
    (k, 3, n); a field that no change moves keeps its node rows, the same arrays.
    """
    vol, surf = scenario.volume_data, scenario.surface_data
    rows = (vol.v, surf.v, vol.w, surf.w, vol.curl_w)
    if generators is None:
        return rows
    c_hat, q_hat, c, q = (generators[..., s, :, None] for s in range(4))
    moves = [(c_hat, q_hat, vol.y, scenario.y0), (c_hat, q_hat, surf.y, scenario.y0),
             (c, q, vol.points, scenario.x0), (c, q, surf.points, scenario.x0)]
    return (*(row + (t + cross(r, nodes - pivot[:, None], axis=-2))
              if t.any() or r.any() else row
              for row, (t, r, nodes, pivot) in zip(rows, moves)),
            rows[4] + 2.0 * q if q.any() else rows[4])


def _power_rows(scenario: Scenario):
    """The literal power integrand as maps of C-contiguous pair rows, so ``einsum``
    adds each node's components in order: ``material(w, w_surf)`` gives F w at
    both node sets and the flux and inhomogeneity rows, ``couple(curl_w)`` the
    couple rows, and ``pieces(v, v_surf, of_w, couple)`` the ``PowerBreakdown`` rows."""
    vol, surf = scenario.volume_data, scenario.surface_data
    inhomogeneity = vol.material_gradient - vol.driving_force
    def material(w, w_surf):
        return (np.einsum("ijn,...jn->...in", vol.f_grad, w),
                np.einsum("ijn,...jn->...in", surf.f_grad, w_surf),
                np.einsum("in,...in->...n", surf.normals, w_surf) * surf.energy,
                np.einsum("in,...in->...n", inhomogeneity, w))

    def pieces(v, v_surf, of_w, couple):
        f_w, f_w_surf, flux, inh = of_w
        return (np.einsum("in,...in->...n", vol.body_force, v - f_w),
                np.einsum("in,...in->...n", surf.traction, v_surf - f_w_surf),
                flux, inh, couple)

    return material, lambda c: -0.5 * np.einsum("in,...in->...n", vol.couple, c), pieces


def _power_total(scenario: Scenario, rows):
    """P_rel from the five piece rows of ``_power_rows``: the volume pieces and the
    surface pieces added node by node, then one part integral."""
    act, act_s, flux, inh, cpl = rows
    return part_integral(scenario, act + inh + cpl, act_s + flux)


def relative_power(scenario: Scenario, rows=None) -> PowerBreakdown:
    """Literal evaluation of the relative power on the scenario's part, for the
    pair rows of :func:`pair_rows` (the node rows by default)."""
    material, couple, power_rows = _power_rows(scenario)
    v, v_surf, w, w_surf, curl_w = map(np.ascontiguousarray, rows or pair_rows(scenario))
    pieces = power_rows(v, v_surf, material(w, w_surf), couple(curl_w))
    vol_w, surf_w = scenario.volume_data.weights, scenario.surface_data.weights
    return PowerBreakdown(*(weighted_fsum(piece, weights) for piece, weights
                            in zip(pieces, (vol_w, surf_w, surf_w, vol_w, vol_w))),
                          total=_power_total(scenario, pieces))


def inner_relative_power(scenario: Scenario) -> float:
    """Volume-only inner form of the relative power for the scenario's pair."""
    vol = scenario.volume_data
    rows = (contract(vol.stress, vol.grad_v) + contract(vol.eshelby, vol.grad_w)
            - 0.5 * np.einsum("in,in->n", vol.couple, vol.curl_w))
    return weighted_fsum(rows, vol.weights)


def standard_external_power(scenario: Scenario) -> float:
    """int_b b . v dx + int_db Pn . v dA, evaluated on its own."""
    vol, surf = scenario.volume_data, scenario.surface_data
    return part_integral(scenario, np.einsum("in,in->n", vol.body_force, vol.v),
                         np.einsum("in,in->n", surf.traction, surf.v))


# ---------------------------------------------------------------------------
# Integral balances
# ---------------------------------------------------------------------------

class BalanceResiduals(NamedTuple):
    """The four integral balance residual vectors of one part."""

    force: np.ndarray
    torque: np.ndarray
    configurational_force: np.ndarray
    configurational_torque: np.ndarray


def integral_balance_residuals(scenario: Scenario, x0=None, y0=None) -> BalanceResiduals:
    """R1..R4 about the pivots x0 and y0 (the scenario's by default)."""
    x0 = (scenario.x0 if x0 is None else x0)[:, None]
    y0 = (scenario.y0 if y0 is None else y0)[:, None]
    vol, surf = scenario.volume_data, scenario.surface_data
    config_forces = (vol.material_gradient - vol.driving_force
                     - np.einsum("kin,kn->in", vol.f_grad, vol.body_force))
    return BalanceResiduals(
        force=part_integral(scenario, vol.body_force, surf.traction),
        torque=part_integral(scenario, cross(vol.y - y0, vol.body_force, axis=-2),
                             cross(surf.y - y0, surf.traction, axis=-2)),
        configurational_force=part_integral(scenario, config_forces, surf.config_traction),
        configurational_torque=part_integral(
            scenario, cross(vol.points - x0, config_forces, axis=-2) - vol.couple,
            cross(surf.points - x0, surf.config_traction, axis=-2)),
    )


# ---------------------------------------------------------------------------
# Observer-change decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceDecomposition:
    """Brute-force coefficients of the observer-change defect."""

    coefficients: Dict[str, np.ndarray]
    affine_residual: float


def invariance_decomposition(scenario: Scenario,
                             base: PowerBreakdown) -> InvarianceDecomposition:
    """Extract the defect coefficients for unit generators, then verify
    that two random combined generators superpose affinely.

    ``base`` is the relative power of the scenario's pair as the caller
    computed it: it sets the scale and is the power of the zero change.  The
    12 unit changes (slot by slot, axis by axis) and the 2 random ones are
    one stack of generators, evaluated in chunks of ``max(1, CHUNK_ROWS //
    n)`` changes for n volume nodes.  Until a chunk moves w, the chunks take
    the zero change's pieces of it; no moved row outlives its pieces, and each
    change's power is summed as ``base.total`` is.
    """
    slots = len(GENERATOR_SLOTS)
    rng = np.random.default_rng(scenario.seed + 1)
    combined = rng.uniform(-1.0, 1.0, size=(2, slots, 3))
    # unit change 3 s + a carries e_a in slot s only
    gens = np.concatenate([np.eye(3 * slots).reshape(-1, slots, 3), combined])

    material, couple, power_rows = _power_rows(scenario)
    rows = pair_rows(scenario)
    zero_w = functools.cache(lambda: material(*rows[2:4]))
    chunk = max(1, CHUNK_ROWS // len(scenario.volume_data.weights))

    def total(generators):
        v, v_surf, w, w_surf, curl_w = pair_rows(scenario, generators)
        if w is not rows[2]:   # the changes that move w come last
            zero_w.cache_clear()
        of_w, of_curl_w = zero_w() if w is rows[2] else material(w, w_surf), couple(curl_w)
        del w, w_surf, curl_w
        return _power_total(scenario, power_rows(v, v_surf, of_w, of_curl_w))
    defects = np.concatenate([total(gens[k:k + chunk])
                              for k in range(0, len(gens), chunk)]) - base.total

    units = defects[:3 * slots]
    coefficients = dict(zip(GENERATOR_SLOTS, units.reshape(slots, 3)))
    scale = max(base.scale, float(np.max(np.abs(units))))
    worst = 0.0
    for defect, generators in zip(defects[3 * slots:], combined):
        predicted = math.fsum(
            float(coefficients[slot] @ g) for slot, g in zip(GENERATOR_SLOTS, generators))
        worst = max(worst, abs(defect - predicted))
    affine_residual = worst / scale
    if affine_residual > AFFINE_TOLERANCE:
        raise NonAffineDefect(
            f"affine superposition residual {affine_residual:g} exceeds "
            f"{AFFINE_TOLERANCE:g}; the defect evaluation is inconsistent"
        )
    return InvarianceDecomposition(coefficients=coefficients,
                                   affine_residual=affine_residual)


# ---------------------------------------------------------------------------
# Conservation-law checks
# ---------------------------------------------------------------------------

class NoetherReport(NamedTuple):
    max_first_condition: float
    max_second_condition: float
    boundary_flux_gap: float
    max_second_condition_mismatch: float


def noether_point_checks(scenario: Scenario) -> NoetherReport:
    """The two equivariance conditions at every volume node, and the balance
    of the flux F = (e + u) w + P^t (v - F w) through the part's boundary,

        boundary_flux_gap = | int_db F . n dA - int_b (first + second) dx |,

    read from the node data, so no derivative of F is taken (Div F = first +
    second where div w = 0 and Div P = du/dy).  Requires a declared body-force
    potential and an isochoric w (|div w| <= 1e-10 at every volume node).  The
    mismatch column compares the second condition against de/dx|expl . w, its
    value for constant w.
    """
    if scenario.potential is None:
        raise PreconditionViolated("conservation-law checks need a declared "
                                   "body-force potential")
    vol, surf, potential = scenario.volume_data, scenario.surface_data, scenario.potential
    div_w = np.trace(vol.grad_w)
    bad = div_w[np.abs(div_w) > 1e-10]
    if bad.size:
        raise PreconditionViolated(
            f"material field w is not isochoric: div w = {bad[0]:g}")

    first, second = conf.noether_condition_residuals(
        potential, vol, vol.v, vol.grad_v, vol.w, vol.grad_w)
    flux = np.einsum("in,in->n", conf.noether_flux(potential, surf, surf.v, surf.w),
                     surf.normals)
    gap = abs(part_integral(scenario, -(first + second), flux))
    mismatch = second - np.einsum("in,in->n", vol.material_gradient, vol.w)
    return NoetherReport(*(float(np.max(np.abs(values), initial=0.0))
                           for values in (first, second, gap, mismatch)))
