"""Exception types shared across the toolkit."""


class NonPositiveJacobian(Exception):
    """A deformation gradient with det F <= 0 was encountered."""


class NonFiniteValue(Exception):
    """A value made from finite inputs has a non-finite component."""


class PreconditionViolated(Exception):
    """A check was invoked on a scenario that violates its hypotheses."""


class NonAffineDefect(Exception):
    """The observer-change defect failed the affine superposition check.

    The defect is affine in the change generators by construction, so this
    error always indicates an implementation bug, never a property of the
    scenario.
    """


class ConfigInvalid(Exception):
    """A scenario configuration failed schema or semantic validation."""
