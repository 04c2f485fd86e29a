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
reports them next to these independently integrated predictions.

Every integrand is evaluated at once over the node arrays of a part
(points (n, 3), tensors (n, 3, 3)) and accumulated by ``weighted_fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from . import configurational as conf
from .exceptions import NonAffineDefect, PreconditionViolated
from .fields import ObserverChange, VirtualFieldPair, curl_from_gradient
from .geometry import BodyPart, SurfaceQuadrature, weighted_fsum
from .scenarios import Scenario
from .tensors import as_vector, contract, dot, matvec, skew_part, transpose


@dataclass(frozen=True)
class PowerBreakdown:
    """The pieces of one relative-power evaluation."""

    actions_volume: float
    actions_surface: float
    energy_flux: float
    inhomogeneity: float
    couple: float

    @property
    def actions(self) -> float:
        return self.actions_volume + self.actions_surface

    @property
    def disarrangement(self) -> float:
        return self.energy_flux + self.inhomogeneity + self.couple

    @property
    def total(self) -> float:
        return self.actions + self.disarrangement

    @property
    def scale(self) -> float:
        return max(1.0, abs(self.actions), abs(self.disarrangement))


@dataclass(frozen=True)
class PairSamples:
    """A virtual-field pair sampled at the quadrature nodes of one part."""

    v_volume: np.ndarray
    w_volume: np.ndarray
    curl_w_volume: np.ndarray
    v_surface: np.ndarray
    w_surface: np.ndarray

    def shifted(self, change: ObserverChange, vol, surf) -> "PairSamples":
        """Samples of (v*, w*); the rigid offsets use the cached node data."""
        dv_vol = (change.ambient_translation
                  + np.cross(change.ambient_rotation, vol.y - change.ambient_pivot))
        dw_vol = (change.material_translation
                  + np.cross(change.material_rotation,
                             vol.points - change.material_pivot))
        dv_surf = (change.ambient_translation
                   + np.cross(change.ambient_rotation, surf.y - change.ambient_pivot))
        dw_surf = (change.material_translation
                   + np.cross(change.material_rotation,
                              surf.points - change.material_pivot))
        return PairSamples(
            v_volume=self.v_volume + dv_vol,
            w_volume=self.w_volume + dw_vol,
            curl_w_volume=self.curl_w_volume + 2.0 * change.material_rotation,
            v_surface=self.v_surface + dv_surf,
            w_surface=self.w_surface + dw_surf,
        )


def sample_pair(scenario: Scenario, pair: VirtualFieldPair,
                part: Optional[BodyPart] = None) -> PairSamples:
    part = scenario.part if part is None else part
    vol = scenario.volume_data(part)
    surf = scenario.surface_data(part)
    return PairSamples(
        v_volume=pair.v(vol.points),
        w_volume=pair.w(vol.points),
        curl_w_volume=pair.w.curl(vol.points),
        v_surface=pair.v(surf.points),
        w_surface=pair.w(surf.points),
    )


def _power_from_samples(scenario: Scenario, part: BodyPart,
                        samples: PairSamples) -> PowerBreakdown:
    vol = scenario.volume_data(part)
    surf = scenario.surface_data(part)
    x0 = scenario.x0

    rel_velocity = samples.v_volume - np.einsum(
        "nij,nj->ni", vol.f_grad, samples.w_volume)
    act_rows = np.einsum("ni,ni->n", vol.body_force, rel_velocity)
    relabel = samples.w_volume - np.cross(samples.curl_w_volume,
                                          vol.points - x0)
    inh_rows = np.einsum(
        "ni,ni->n", vol.material_gradient - vol.driving_force, relabel)
    cpl_rows = np.einsum("ni,ni->n", vol.couple, samples.curl_w_volume)

    tractions = np.einsum("nij,nj->ni", surf.stress, surf.normals)
    rel_surf = samples.v_surface - np.einsum(
        "nij,nj->ni", surf.f_grad, samples.w_surface)
    act_s_rows = np.einsum("ni,ni->n", tractions, rel_surf)
    flux_rows = np.einsum("ni,ni->n", surf.normals, samples.w_surface) * surf.energy

    return PowerBreakdown(
        actions_volume=weighted_fsum(act_rows, vol.weights),
        actions_surface=weighted_fsum(act_s_rows, surf.weights),
        energy_flux=weighted_fsum(flux_rows, surf.weights),
        inhomogeneity=weighted_fsum(inh_rows, vol.weights),
        couple=weighted_fsum(cpl_rows, vol.weights),
    )


def relative_power(scenario: Scenario, pair: Optional[VirtualFieldPair] = None,
                   part: Optional[BodyPart] = None) -> PowerBreakdown:
    """Literal evaluation of the relative power on a part."""
    pair = scenario.pair if pair is None else pair
    part = scenario.part if part is None else part
    return _power_from_samples(scenario, part, sample_pair(scenario, pair, part))


def inner_relative_power(scenario: Scenario, pair: Optional[VirtualFieldPair] = None,
                         part: Optional[BodyPart] = None) -> float:
    """Volume-only inner form of the relative power."""
    pair = scenario.pair if pair is None else pair
    part = scenario.part if part is None else part
    vol = scenario.volume_data(part)
    x0 = scenario.x0

    grad_w = pair.w.grad(vol.points)
    moment = ((vol.points - x0)[:, :, None]
              * (vol.material_gradient - vol.driving_force)[:, None, :])
    rows = (contract(vol.stress, pair.v.grad(vol.points))
            + contract(vol.eshelby, grad_w)
            - contract(moment, skew_part(grad_w))
            + dot(vol.couple, curl_from_gradient(grad_w)))
    return weighted_fsum(rows, vol.weights)


def standard_external_power(scenario: Scenario, pair: Optional[VirtualFieldPair] = None,
                            part: Optional[BodyPart] = None) -> float:
    """int_b b . v dx + int_db Pn . v dA, evaluated on its own."""
    pair = scenario.pair if pair is None else pair
    part = scenario.part if part is None else part
    vol = scenario.volume_data(part)
    surf = scenario.surface_data(part)
    vol_rows = dot(vol.body_force, pair.v(vol.points))
    surf_rows = dot(matvec(surf.stress, surf.normals), pair.v(surf.points))
    return weighted_fsum(vol_rows, vol.weights) + weighted_fsum(surf_rows, surf.weights)


# ---------------------------------------------------------------------------
# Integral balances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceResiduals:
    """The four integral balance residual vectors of one part."""

    force: np.ndarray
    torque: np.ndarray
    configurational_force: np.ndarray
    configurational_torque: np.ndarray
    ambient_pivot: np.ndarray
    material_pivot: np.ndarray

    def as_dict(self) -> Dict[str, np.ndarray]:
        return {
            "force": self.force,
            "torque": self.torque,
            "configurational_force": self.configurational_force,
            "configurational_torque": self.configurational_torque,
        }


def integral_balance_residuals(scenario: Scenario, part: Optional[BodyPart] = None,
                               x0=None, y0=None) -> BalanceResiduals:
    part = scenario.part if part is None else part
    x0 = scenario.x0 if x0 is None else as_vector(x0)
    y0 = scenario.y0 if y0 is None else as_vector(y0)
    vol = scenario.volume_data(part)
    surf = scenario.surface_data(part)

    tractions = matvec(surf.stress, surf.normals)
    config_tractions = matvec(surf.eshelby, surf.normals)

    force = (weighted_fsum(vol.body_force, vol.weights)
             + weighted_fsum(tractions, surf.weights))

    torque = (weighted_fsum(np.cross(vol.y - y0, vol.body_force), vol.weights)
              + weighted_fsum(np.cross(surf.y - y0, tractions), surf.weights))

    pulled_back = matvec(transpose(vol.f_grad), vol.body_force)
    config_force = (
        weighted_fsum(config_tractions, surf.weights)
        - weighted_fsum(pulled_back, vol.weights)
        + weighted_fsum(vol.material_gradient - vol.driving_force, vol.weights)
    )

    config_torque = (
        weighted_fsum(np.cross(surf.points - x0, config_tractions), surf.weights)
        - weighted_fsum(np.cross(vol.points - x0, pulled_back), vol.weights)
        + weighted_fsum(vol.couple, vol.weights)
    )

    return BalanceResiduals(force, torque, config_force, config_torque, y0, x0)


def material_torque_mismatch(scenario: Scenario, part: Optional[BodyPart] = None,
                             x0=None) -> np.ndarray:
    """int_b [(x - x0) x (f - de/dx|expl) + mu] dx.

    The gap between the configurational-torque residual and the
    rotation-generator coefficient of the observer-change defect.
    """
    part = scenario.part if part is None else part
    x0 = scenario.x0 if x0 is None else as_vector(x0)
    vol = scenario.volume_data(part)
    rows = (np.cross(vol.points - x0, vol.driving_force - vol.material_gradient)
            + vol.couple)
    return weighted_fsum(rows, vol.weights)


# ---------------------------------------------------------------------------
# Observer-change decomposition
# ---------------------------------------------------------------------------

GENERATOR_SLOTS = (
    "ambient_translation",
    "ambient_rotation",
    "material_translation",
    "material_rotation",
)


@dataclass(frozen=True)
class InvarianceDecomposition:
    """Brute-force coefficients of the observer-change defect."""

    coefficients: Dict[str, np.ndarray]
    predicted: Dict[str, np.ndarray]
    affine_residual: float
    power_scale: float
    mismatch: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def coefficient_norms(self) -> Dict[str, float]:
        return {k: float(np.linalg.norm(v)) for k, v in self.coefficients.items()}

    def prediction_errors(self) -> Dict[str, float]:
        return {
            k: float(np.linalg.norm(self.coefficients[k] - self.predicted[k]))
            for k in self.coefficients
        }


def _unit_change(scenario: Scenario, slot: str, axis: int,
                 value: float = 1.0) -> ObserverChange:
    kwargs = {
        "ambient_pivot": scenario.y0,
        "material_pivot": scenario.x0,
    }
    vec = np.zeros(3)
    vec[axis] = value
    kwargs[slot] = vec
    return ObserverChange(**kwargs)


def invariance_decomposition(scenario: Scenario,
                             pair: Optional[VirtualFieldPair] = None,
                             part: Optional[BodyPart] = None,
                             affine_tolerance: float = 1e-10,
                             probes: int = 2) -> InvarianceDecomposition:
    """Extract the defect coefficients for unit generators, then verify
    that random combined generators superpose affinely."""
    pair = scenario.pair if pair is None else pair
    part = scenario.part if part is None else part
    vol = scenario.volume_data(part)
    surf = scenario.surface_data(part)
    samples = sample_pair(scenario, pair, part)
    base = _power_from_samples(scenario, part, samples)

    def defect(change: ObserverChange) -> float:
        shifted = samples.shifted(change, vol, surf)
        return _power_from_samples(scenario, part, shifted).total - base.total

    coefficients: Dict[str, np.ndarray] = {}
    for slot in GENERATOR_SLOTS:
        deltas = np.empty(3)
        for axis in range(3):
            deltas[axis] = defect(_unit_change(scenario, slot, axis))
        coefficients[slot] = deltas

    scale = max(base.scale,
                max(float(np.max(np.abs(c))) for c in coefficients.values()))

    rng = np.random.default_rng(scenario.seed + 1)
    worst = 0.0
    for _ in range(probes):
        gens = {slot: rng.uniform(-1.0, 1.0, size=3) for slot in GENERATOR_SLOTS}
        change = ObserverChange(
            ambient_pivot=scenario.y0, material_pivot=scenario.x0, **gens
        )
        combined = defect(change)
        predicted = math.fsum(
            float(coefficients[slot] @ gens[slot]) for slot in GENERATOR_SLOTS
        )
        worst = max(worst, abs(combined - predicted))
    affine_residual = worst / scale
    if affine_residual > affine_tolerance:
        raise NonAffineDefect(
            f"affine superposition residual {affine_residual:g} exceeds "
            f"{affine_tolerance:g}; the defect evaluation is inconsistent"
        )

    residuals = integral_balance_residuals(scenario, part)
    mismatch = material_torque_mismatch(scenario, part)
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


def grouping_factor(coefficient: np.ndarray, residual: np.ndarray,
                    floor: float = 1e-9) -> Optional[float]:
    """Least-squares scalar a with coefficient ~ a * residual, if resolvable."""
    denom = float(residual @ residual)
    if denom < floor ** 2:
        return None
    return float(coefficient @ residual) / denom


# ---------------------------------------------------------------------------
# Surface independence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceIndependenceResult:
    flux_inner: np.ndarray
    flux_outer: np.ndarray

    @property
    def difference(self) -> np.ndarray:
        return self.flux_outer - self.flux_inner

    @property
    def difference_norm(self) -> float:
        return float(np.linalg.norm(self.difference))

    @property
    def flux_scale(self) -> float:
        return max(1.0, float(np.linalg.norm(self.flux_inner)),
                   float(np.linalg.norm(self.flux_outer)))


def configurational_traction_flux(scenario: Scenario,
                                  surface: SurfaceQuadrature) -> np.ndarray:
    """int_S PP n dA over one closed surface."""
    rows = matvec(scenario.eshelby_at(surface.points), surface.normals)
    return weighted_fsum(rows, surface.weights)


def surface_independence_check(scenario: Scenario, inner: SurfaceQuadrature,
                               outer: SurfaceQuadrature,
                               allow_broken_hypotheses: bool = False,
                               sample_points: int = 8) -> SurfaceIndependenceResult:
    """Compare the configurational traction flux through nested surfaces.

    The hypotheses (homogeneous material, no sources, equilibrium) are
    probed at sampled interior points unless explicitly waived for a
    control run.
    """
    if not allow_broken_hypotheses:
        if not scenario.model.homogeneous:
            raise PreconditionViolated("surface independence requires a "
                                       "homogeneous material")
        points = scenario.part.sample_interior(scenario.rng(), sample_points)
        if any(np.any(np.linalg.norm(source, axis=-1) > 1e-8)
               for source in scenario.sources(points)):
            raise PreconditionViolated("surface independence requires "
                                       "b = f = mu = 0")
    return SurfaceIndependenceResult(
        flux_inner=configurational_traction_flux(scenario, inner),
        flux_outer=configurational_traction_flux(scenario, outer),
    )


def material_gradient_integral(scenario: Scenario,
                               part: Optional[BodyPart] = None) -> np.ndarray:
    """int_b de/dx|expl dx, the control value when grading breaks the
    surface-independence hypotheses."""
    part = scenario.part if part is None else part
    vol = scenario.volume_data(part)
    return weighted_fsum(vol.material_gradient, vol.weights)


# ---------------------------------------------------------------------------
# Conservation-law point checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoetherReport:
    max_first_condition: float
    max_second_condition: float
    max_flux_divergence: float
    max_second_condition_mismatch: float


def noether_point_checks(scenario: Scenario, n_points: int = 100,
                         isochoric_tolerance: float = 1e-10) -> NoetherReport:
    """Evaluate the two equivariance conditions and Div F at random
    interior points.

    Requires a declared body-force potential and an isochoric material
    field w.  The mismatch column compares the second condition against
    de/dx|expl . w, its value for constant w.
    """
    if scenario.potential is None:
        raise PreconditionViolated("conservation-law checks need a declared "
                                   "body-force potential")
    points = scenario.part.sample_interior(scenario.rng(), n_points)
    div_w = scenario.pair.w.divergence(points[:8])
    bad = div_w[np.abs(div_w) > isochoric_tolerance]
    if bad.size:
        raise PreconditionViolated(
            f"material field w is not isochoric: div w = {bad[0]:g}")

    model, motion, pair = scenario.model, scenario.motion, scenario.pair
    first, second = conf.noether_condition_residuals(
        model, motion, scenario.potential, pair, points)
    div_flux = conf.div_noether_flux(model, motion, scenario.potential, pair, points,
                                     scenario.divergence_step)
    reference = dot(model.material_gradient(points, motion.deformation_gradient(points)),
                    pair.w(points))
    return NoetherReport(*(float(np.max(np.abs(values), initial=0.0))
                           for values in (first, second, div_flux, second - reference)))
