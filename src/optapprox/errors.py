"""Exception hierarchy shared by all modules."""


class OptApproxError(Exception):
    """Base class for all library errors."""


class BackendMismatchError(OptApproxError):
    """Operands live in different scalar backends, or an exact-backend
    operation was requested with a non-integer weight exponent."""


class ZeroAtOriginError(OptApproxError):
    """f(0) = 0; the approximant problem requires f(0) != 0."""


class InvalidReflectionDegreeError(OptApproxError):
    """reflect(p, n) called with n smaller than the effective degree of p."""


class ConditioningError(OptApproxError):
    """Float-backend linear system too ill-conditioned to solve reliably.

    The exact backend is unaffected; switch to it for large n or wild
    weights.
    """


class InstabilityError(OptApproxError):
    """Float orthogonal basis refused: the Cholesky factor of the Gram
    matrix has a nonpositive pivot, or the orthogonality certificate fails."""


class BreakdownError(OptApproxError):
    """Levinson recursion produced a reflection coefficient with modulus
    >= 1 (float noise on a nearly singular Toeplitz system)."""


class UnsupportedAlphaError(OptApproxError):
    """Operation is only defined for a restricted range of the weight
    exponent (e.g. the circle-case identity needs alpha = 0)."""


class DegenerateError(OptApproxError):
    """A required quantity vanished (zero polynomial, zero denominator,
    phi_n(0) = 0 in a reconstruction, ...)."""


class SpecValidationError(OptApproxError):
    """A FunctionSpec or CLI configuration violates its invariants."""
