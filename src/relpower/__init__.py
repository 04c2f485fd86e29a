"""Numerical verification toolkit for configurational balance laws.

The toolkit evaluates the relative power of a deforming body part for
virtual velocity pairs over ambient and material space, extracts the
coefficients of its defect under isometric observer changes, and
machine-checks the resulting standard and configurational balances,
with the Eshelby stress e I - F^t P at the center of the bookkeeping.
"""

__version__ = "0.1.0"

from .exceptions import (ConfigInvalid, NonAffineDefect, NonPositiveJacobian,
                         NotAntisymmetric, PreconditionViolated, RelpowerError)
from .fields import Motion, VirtualField, VirtualFieldPair
from .functionals import (BalanceResiduals, InvarianceDecomposition,
                          PowerBreakdown, inner_relative_power,
                          integral_balance_residuals, invariance_decomposition,
                          material_torque_mismatch, noether_point_checks,
                          relative_power, standard_external_power,
                          surface_independence_check)
from .geometry import (BodyPart, SurfaceQuadrature, ball_part, box_part,
                       shell_part, weighted_fsum)
from .materials import (MaterialModel, Modulus, affine_modulus, constant_modulus,
                        sinusoidal_modulus)
from .scenarios import Scenario, bundled_scenario_names, load_bundled_config
from .tensors import axial_vector, cross_matrix, skew_part

__all__ = [name for name in dir() if not name.startswith("_")]
