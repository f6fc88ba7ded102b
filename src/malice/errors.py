"""Exception taxonomy shared across the package."""


class MaliceError(Exception):
    """Base class for all library errors."""


class ValidationError(MaliceError):
    """Invalid input data or parameters (CLI exit code 2)."""


class EmptyInstance(ValidationError):
    """An instance needs at least one link."""


class NegativeCoefficient(ValidationError):
    """Latency coefficients must be nonnegative."""


class NonFiniteCoefficient(ValidationError):
    """Latency coefficients must be finite."""


class SubnormalSlope(ValidationError):
    """A positive slope must be a normal float (at least sys.float_info.min).

    The solvers divide by slopes; the reciprocal of a subnormal one
    overflows to infinity.
    """


class DimensionMismatch(ValidationError):
    """A flow does not have one entry per link."""


class InvalidMass(ValidationError):
    """A flow mass is negative, non-finite, or inconsistent with its entries."""


class InvalidFlow(ValidationError):
    """A flow entry is non-finite or more negative than the clamp tolerance."""


class InvalidAlpha(ValidationError):
    """The adversarial mass fraction is outside its admissible range."""


class NonPositiveM(ValidationError):
    """The slope parameter of the two-link tight family must be positive."""


class InvalidM(ValidationError):
    """A generated instance's link count is out of range (`network`, `random_instance`)."""


class InvalidRange(ValidationError):
    """A grid resolution is not a positive integer."""


class DegenerateInstance(ValidationError):
    """Cost-of-malice ratios are undefined where (1 - alpha) times the unit
    optimum cost is not positive: zero, or a product that underflows."""


class GridTooLarge(ValidationError):
    """The discretized strategy simplex, or its resolution, exceeds the point cap."""


class CertificateFailure(MaliceError):
    """A solver self-check exceeded the failure threshold (CLI exit code 3)."""
