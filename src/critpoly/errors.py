"""Exception types shared across the package."""


class CritPolyError(Exception):
    """Base class for all package-specific errors."""


class VariableMismatch(CritPolyError):
    """Arithmetic attempted between polynomials in different variables."""


class ZeroPolynomial(CritPolyError):
    """Operation undefined for the zero polynomial."""


class MixedCoefficients(CritPolyError):
    """Critical-line substitution produced a coefficient with nonzero real
    and imaginary parts, i.e. the input violates the reflection symmetry."""


class InvalidLambda(CritPolyError):
    """Gegenbauer parameter outside (-1/2, inf) \\ {0}."""


class InvalidBeta(CritPolyError):
    """Reflection-family parameter must be a rational < 1."""


class UndefinedIndex(CritPolyError):
    """Requested index outside the family's domain (e.g. q at n = 0)."""


class NonTerminating(CritPolyError):
    """No numerator parameter of the series is a nonpositive integer."""


class DenominatorPole(CritPolyError):
    """A denominator parameter hits a nonpositive integer before the
    series terminates."""


class PoleInDenominator(CritPolyError):
    """A bare binomial sum was evaluated at a point where a denominator
    binomial vanishes."""


class ToleranceNotMet(CritPolyError):
    """Quadrature error estimate exceeds the requested tolerance."""


class InvalidParameters(CritPolyError):
    """Numeric routine called outside its validity domain."""


class IdentityFailed(CritPolyError):
    """An exact identity of the verification catalog does not hold."""
