"""Exception types shared across the library."""


class NonConvergent(Exception):
    """A kernel series could not be summed to the requested certified accuracy."""


class EvaluationFailure(Exception):
    """An integrand raised while being evaluated at a quadrature node."""


class AdmissibilityError(ValueError):
    """A space/operator parameter combination violates its admissibility condition."""


class UnsupportedPair(Exception):
    """The requested inclusion test is outside the implemented sharp conditions."""
