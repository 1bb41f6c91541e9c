"""Exception types raised across the package.

Everything derives from ValueError except ConvergenceFailure, so callers
that only care about "bad input" can catch ValueError wholesale while
genuine numerical breakdowns stay distinguishable.
"""


class ConvergenceFailure(RuntimeError):
    """The iterative eigensolver did not converge."""


class DimensionOverflow(ValueError):
    """Requested dense dimension exceeds the configured cap."""


class DimensionMismatch(ValueError):
    """Operand dimensions are inconsistent."""


class EmptySubset(ValueError):
    """A qubit subset (or its complement) is empty where it must not be."""


class TooFewQubits(ValueError):
    """State constructor called with fewer qubits than the family supports."""


class ExcitationOutOfRange(ValueError):
    """Dicke excitation number outside 1..n-1."""


class ParameterOutOfRange(ValueError):
    """Scalar parameter outside its documented domain."""


class ParseError(ValueError):
    """Matrix file could not be parsed."""


class InvariantViolation(ValueError):
    """A state invariant (norm, Hermiticity, trace, positivity) fails."""


class WrongDimension(ValueError):
    """Operation requires a specific Hilbert-space dimension."""


class WrongQubitCount(ValueError):
    """Bound theorem applied outside its qubit-count domain."""


class NegativeRadicand(ValueError):
    """Threshold radicand is negative beyond tolerance: invalid (N, d, k) regime."""


class NonMonotoneFamily(ValueError):
    """Family's bound is not known to be nondecreasing in its parameter; bisection refused."""


class FamilyMismatch(ValueError):
    """Input state is not a member of the family an exact formula requires."""
