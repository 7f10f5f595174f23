"""Exception types shared across the library."""


class ParameterError(ValueError):
    """A weight parameter is outside its admissible range."""


class DomainError(ValueError):
    """A point lies outside the (closed) domain or has the wrong dimension."""


class BoundarySingularityError(ValueError):
    """An evaluation was requested too close to a singular boundary."""


class CapacityError(RuntimeError):
    """The request exceeds a built-in resource or degree cap.

    The message carries a remediation hint (lower the degree, or raise delta
    or the basis cap).
    """


class PrecisionError(RuntimeError):
    """A numerical quality gate failed (truncation, MC noise, export integrity).

    Raised instead of silently returning an under-resolved result.
    """
