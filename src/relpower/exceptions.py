"""Exception types shared across the toolkit."""


class RelpowerError(Exception):
    """Base class for all toolkit errors."""


class NonPositiveJacobian(RelpowerError):
    """A deformation gradient with det F <= 0 was encountered."""


class NonFiniteValue(RelpowerError):
    """A value made from finite inputs has a non-finite component."""


class NotAntisymmetric(RelpowerError):
    """An axial vector was requested for a tensor that is not antisymmetric."""


class PreconditionViolated(RelpowerError):
    """A check was invoked on a scenario that violates its hypotheses."""


class NonAffineDefect(RelpowerError):
    """The observer-change defect failed the affine superposition check.

    The defect is affine in the change generators by construction, so this
    error always indicates an implementation bug, never a property of the
    scenario.
    """


class ConfigInvalid(RelpowerError):
    """A scenario configuration failed schema or semantic validation."""
