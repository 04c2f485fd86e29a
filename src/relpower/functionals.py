"""The relative-power functional, its inner form and the integral balances.

The relative power of a part for the pair (v, w) is evaluated literally:

    P_rel(v, w) = P_act(v, w) + P_dis(v, w)

    P_act = int_b  b . (v - F w) dx  +  int_db  Pn . (v - F w) dA
    P_dis = int_db (n . w) e dA
          + int_b (de/dx|expl - f) . (w - curl w x (x - x0)) dx
          + int_b mu . curl w dx

The inner form is

    P_inn = int_b ( P . grad v + PP . grad w
                    - (x - x0) (x) (de/dx|expl - f) . Skw grad w
                    + mu . curl w ) dx

and the four integral balances are the force, torque, configurational
force and configurational torque residuals of the same part.

Observer-change bookkeeping.  The defect P_rel(v*, w*) - P_rel(v, w) is
linear in the change generators (c_hat, q_hat, c, q); regrouping the
integrand shows the four coefficient vectors are exactly

    c_hat : R1          q_hat : R2          c : R3
    q     : R4 + int_b [ (x - x0) x (f - de/dx|expl) + mu ] dx

where R1..R4 are the four integral balance residuals.  The extra moment
term on the rotation generator (reported here as the *material torque
mismatch*) vanishes for homogeneous couple-free scenarios and makes the
q-coefficient exactly twice R4 on couple-free closure scenarios.  The
decomposition below extracts the coefficients by brute force and
reports them next to these independently integrated predictions.  The
14 observer changes (12 unit generators, 2 random combinations) are one
(14, 4, 3) array of generators, shifted and evaluated in chunks sized to
about four node blocks; the base power, whose total is the zero change's,
and the residuals come from the caller, which has already computed them.

Every integrand is evaluated at once over the node arrays of the
scenario's part (points (n, 3), tensors (n, 3, 3), the traction P n
among them), built once with the scenario.  Every identity (R1..R4, the
standard external power, ``PowerBreakdown.total``, the power of each
observer change) is one ``part_integral``: one ``weighted_fsum`` over its
volume rows, then its surface rows, so each defect subtracts two totals
summed alike.  Only the report pieces of ``power.csv`` are summed apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import configurational as conf
from . import scenarios
from .exceptions import NonAffineDefect, PreconditionViolated
from .fields import VirtualFieldPair, curl_from_gradient
from .geometry import weighted_fsum
from .scenarios import Scenario
from .tensors import contract, cross, dot, matvec, skew_part, transpose


# the generators of an observer change: (c_hat, q_hat, c, q), rows of a (4, 3)
# array, or of a (k, 4, 3) stack of k changes
GENERATOR_SLOTS = (
    "ambient_translation",
    "ambient_rotation",
    "material_translation",
    "material_rotation",
)

AFFINE_TOLERANCE = 1e-10   # the defect is affine by construction: above it is a bug


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
    the volume nodes, then the surface nodes; rows run along the first axis."""
    vol, surf = scenario.volume_data, scenario.surface_data
    return weighted_fsum(np.concatenate([volume_rows, surface_rows]),
                         np.concatenate([vol.weights, surf.weights]))


@dataclass(frozen=True)
class PairSamples:
    """A virtual-field pair sampled at the quadrature nodes of one part."""

    v_volume: np.ndarray
    w_volume: np.ndarray
    curl_w_volume: np.ndarray
    v_surface: np.ndarray
    w_surface: np.ndarray

    def shifted(self, generators, scenario: Scenario) -> "PairSamples":
        """Samples of (v*, w*) about the scenario's pivots y0 and x0.

        Generators (4, 3), in ``GENERATOR_SLOTS`` order, give samples (n, 3);
        a stack (k, 4, 3) of them gives (k, n, 3), one entry per change.
        """
        vol, surf = scenario.volume_data, scenario.surface_data
        y0, x0 = scenario.y0, scenario.x0
        c_hat, q_hat, c, q = (generators[..., s, None, :] for s in range(4))
        return PairSamples(
            v_volume=self.v_volume + (c_hat + cross(q_hat, vol.y - y0)),
            w_volume=self.w_volume + (c + cross(q, vol.points - x0)),
            curl_w_volume=self.curl_w_volume + 2.0 * q,
            v_surface=self.v_surface + (c_hat + cross(q_hat, surf.y - y0)),
            w_surface=self.w_surface + (c + cross(q, surf.points - x0)),
        )


def sample_pair(scenario: Scenario, pair: VirtualFieldPair) -> PairSamples:
    vol, surf = scenario.volume_data, scenario.surface_data
    return PairSamples(
        v_volume=pair.v(vol.points),
        w_volume=pair.w(vol.points),
        curl_w_volume=pair.w.curl(vol.points),
        v_surface=pair.v(surf.points),
        w_surface=pair.w(surf.points),
    )


def _power_rows(scenario: Scenario, samples: PairSamples):
    """The literal power integrand of one sampled pair, or of a (k, n, 3) stack of
    them, as rows (..., n) of its five pieces in ``PowerBreakdown`` order."""
    vol, surf = scenario.volume_data, scenario.surface_data
    rel_velocity = samples.v_volume - np.einsum(
        "nij,...nj->...ni", vol.f_grad, samples.w_volume)
    relabel = samples.w_volume - cross(samples.curl_w_volume, vol.points - scenario.x0)
    rel_surf = samples.v_surface - np.einsum(
        "nij,...nj->...ni", surf.f_grad, samples.w_surface)
    return (np.einsum("ni,...ni->...n", vol.body_force, rel_velocity),
            np.einsum("ni,...ni->...n", surf.traction, rel_surf),
            np.einsum("ni,...ni->...n", surf.normals, samples.w_surface) * surf.energy,
            np.einsum("ni,...ni->...n", vol.material_gradient - vol.driving_force,
                      relabel),
            np.einsum("ni,...ni->...n", vol.couple, samples.curl_w_volume))


def _power_total(scenario: Scenario, rows):
    """P_rel from the five piece rows of ``_power_rows``: the volume pieces and the
    surface pieces added node by node, then one part integral."""
    act, act_s, flux, inh, cpl = rows
    return part_integral(scenario, (act + inh + cpl).T, (act_s + flux).T)


def relative_power(scenario: Scenario,
                   pair: Optional[VirtualFieldPair] = None) -> PowerBreakdown:
    """Literal evaluation of the relative power on the scenario's part."""
    pair = scenario.pair if pair is None else pair
    rows = _power_rows(scenario, sample_pair(scenario, pair))
    vol_w, surf_w = scenario.volume_data.weights, scenario.surface_data.weights
    return PowerBreakdown(*(weighted_fsum(piece, weights) for piece, weights
                            in zip(rows, (vol_w, surf_w, surf_w, vol_w, vol_w))),
                          total=_power_total(scenario, rows))


def inner_relative_power(scenario: Scenario) -> float:
    """Volume-only inner form of the relative power for the scenario's pair."""
    pair = scenario.pair
    vol = scenario.volume_data
    x0 = scenario.x0

    grad_w = pair.w.grad(vol.points)
    moment = ((vol.points - x0)[:, :, None]
              * (vol.material_gradient - vol.driving_force)[:, None, :])
    rows = (contract(vol.stress, pair.v.grad(vol.points))
            + contract(vol.eshelby, grad_w)
            - contract(moment, skew_part(grad_w))
            + dot(vol.couple, curl_from_gradient(grad_w)))
    return weighted_fsum(rows, vol.weights)


def standard_external_power(scenario: Scenario, pair: VirtualFieldPair) -> float:
    """int_b b . v dx + int_db Pn . v dA, evaluated on its own."""
    vol, surf = scenario.volume_data, scenario.surface_data
    return part_integral(scenario, dot(vol.body_force, pair.v(vol.points)),
                         dot(surf.traction, pair.v(surf.points)))


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
    x0 = scenario.x0 if x0 is None else x0
    y0 = scenario.y0 if y0 is None else y0
    vol, surf = scenario.volume_data, scenario.surface_data
    config_tractions = matvec(surf.eshelby, surf.normals)
    pulled_back = matvec(transpose(vol.f_grad), vol.body_force)
    return BalanceResiduals(
        force=part_integral(scenario, vol.body_force, surf.traction),
        torque=part_integral(scenario, cross(vol.y - y0, vol.body_force),
                             cross(surf.y - y0, surf.traction)),
        configurational_force=part_integral(
            scenario, vol.material_gradient - vol.driving_force - pulled_back,
            config_tractions),
        configurational_torque=part_integral(
            scenario, vol.couple - cross(vol.points - x0, pulled_back),
            cross(surf.points - x0, config_tractions)),
    )


def material_torque_mismatch(scenario: Scenario) -> np.ndarray:
    """int_b [(x - x0) x (f - de/dx|expl) + mu] dx.

    The gap between the configurational-torque residual and the
    rotation-generator coefficient of the observer-change defect.
    """
    vol = scenario.volume_data
    rows = (cross(vol.points - scenario.x0, vol.driving_force - vol.material_gradient)
            + vol.couple)
    return weighted_fsum(rows, vol.weights)


# ---------------------------------------------------------------------------
# Observer-change decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceDecomposition:
    """Brute-force coefficients of the observer-change defect."""

    coefficients: Dict[str, np.ndarray]
    predicted: Dict[str, np.ndarray]
    affine_residual: float
    power_scale: float
    mismatch: np.ndarray


def invariance_decomposition(scenario: Scenario, base: PowerBreakdown,
                             residuals: BalanceResiduals) -> InvarianceDecomposition:
    """Extract the defect coefficients for unit generators, then verify
    that two random combined generators superpose affinely.

    ``base`` (the relative power of the scenario's pair, which sets the
    scale and is the power of the zero change) and ``residuals`` (its
    default-pivot balance residuals) are as the caller computed them.  The
    12 unit changes (slot by slot, axis by axis) and the 2 random ones are
    one stack of generators, evaluated in chunks of
    ``max(1, 4 * NODE_BLOCK // n)`` changes for n volume nodes, so the
    shifted samples of a chunk stay near four node blocks.  Each change's
    power is summed as ``base.total`` is, by ``_power_total``.
    """
    slots = len(GENERATOR_SLOTS)
    rng = np.random.default_rng(scenario.seed + 1)
    combined = rng.uniform(-1.0, 1.0, size=(2, slots, 3))
    # unit change 3 s + a carries e_a in slot s only
    gens = np.concatenate([np.eye(3 * slots).reshape(-1, slots, 3), combined])

    samples = sample_pair(scenario, scenario.pair)
    chunk = max(1, 4 * scenarios.NODE_BLOCK // len(scenario.volume_data.weights))
    defects = np.concatenate([_power_total(scenario, _power_rows(
        scenario, samples.shifted(gens[k:k + chunk], scenario)))
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

    mismatch = material_torque_mismatch(scenario)
    predicted_coeffs = {
        "ambient_translation": residuals.force,
        "ambient_rotation": residuals.torque,
        "material_translation": residuals.configurational_force,
        "material_rotation": residuals.configurational_torque + mismatch,
    }

    return InvarianceDecomposition(
        coefficients=coefficients,
        predicted=predicted_coeffs,
        affine_residual=affine_residual,
        power_scale=base.scale,
        mismatch=mismatch,
    )


def grouping_factor(coefficient: np.ndarray, residual: np.ndarray) -> Optional[float]:
    """Least-squares scalar a with coefficient ~ a * residual, if |residual|
    reaches 1e-9."""
    denom = float(residual @ residual)
    if denom < 1e-9 ** 2:
        return None
    return float(coefficient @ residual) / denom


# ---------------------------------------------------------------------------
# Surface independence
# ---------------------------------------------------------------------------

def surface_independence_check(scenario: Scenario, allow_broken_hypotheses: bool = False
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """(inner, outer) fluxes of PP n through the shell's spheres, read at its boundary
    nodes: outer - inner is the boundary term of the configurational force residual R3.

    The hypotheses (homogeneous material, no sources, equilibrium) are
    checked, the sources at every volume node, unless explicitly waived for
    a control run.
    """
    if not allow_broken_hypotheses:
        if not scenario.model.homogeneous:
            raise PreconditionViolated("surface independence requires a "
                                       "homogeneous material")
        vol = scenario.volume_data
        if any(np.any(np.linalg.norm(source, axis=-1) > 1e-8)
               for source in (vol.body_force, vol.driving_force, vol.couple)):
            raise PreconditionViolated("surface independence requires "
                                       "b = f = mu = 0")
    surf = scenario.surface_data
    outer = dot(surf.normals, surf.points - scenario.part.center) > 0.0
    # outward sphere normals: negating the inner flux would turn an exact 0 into -0
    rows = matvec(surf.eshelby, np.where(outer[:, None], surf.normals, -surf.normals))
    return (weighted_fsum(rows[~outer], surf.weights[~outer]),
            weighted_fsum(rows[outer], surf.weights[outer]))


# ---------------------------------------------------------------------------
# Conservation-law point checks
# ---------------------------------------------------------------------------

class NoetherReport(NamedTuple):
    max_first_condition: float
    max_second_condition: float
    max_flux_divergence: float
    max_second_condition_mismatch: float


def noether_point_checks(scenario: Scenario, n_points: int) -> NoetherReport:
    """Evaluate the two equivariance conditions and Div F at random
    interior points.

    Requires a declared body-force potential and a material field w that
    is isochoric (|div w| <= 1e-10).  The mismatch column compares the second condition against
    de/dx|expl . w, its value for constant w.
    """
    if scenario.potential is None:
        raise PreconditionViolated("conservation-law checks need a declared "
                                   "body-force potential")
    points = scenario.part.sample_interior(np.random.default_rng(scenario.seed), n_points)
    div_w = scenario.pair.w.divergence(points[:8])
    bad = div_w[np.abs(div_w) > 1e-10]
    if bad.size:
        raise PreconditionViolated(
            f"material field w is not isochoric: div w = {bad[0]:g}")

    pair, potential = scenario.pair, scenario.potential
    state = scenario.state(points)
    first, second = conf.noether_condition_residuals(potential, pair, points, state)
    div_flux = conf.div_noether_flux(scenario.model, scenario.motion, potential, pair,
                                     points, scenario.divergence_step)
    reference = dot(state.material_gradient, pair.w(points))
    return NoetherReport(*(float(np.max(np.abs(values), initial=0.0))
                           for values in (first, second, div_flux, second - reference)))
