"""Exception types shared across the package."""


class PadicLieError(Exception):
    """Base class for all errors raised by this package."""


class ModulusMismatch(PadicLieError):
    """Operands carry different (p, N) moduli."""


class NonUnit(PadicLieError):
    """Inversion of a scalar or matrix whose determinant is divisible by p."""


class PrecisionExceeded(PadicLieError):
    """A congruence exponent exceeds the working precision N."""


class PrecisionExhausted(PadicLieError):
    """Pivoting cannot certify a unit at the available precision."""


class DomainViolation(PadicLieError):
    """Input lies outside the stated convergence domain."""


class UnsupportedPrime(PadicLieError):
    """The operation's prime floor excludes this p."""


class UnsupportedPrecision(PadicLieError):
    """The operation needs more starting precision than supplied."""


class ClosureBudgetExceeded(PadicLieError):
    """A subgroup closure grew past the configured element cap."""


class BudgetExceeded(PadicLieError):
    """An enumeration grew past the configured cap."""


class DegenerateSpan(PadicLieError):
    """Generators are linearly dependent modulo p where independence is required."""


class NoUnitDerivative(PadicLieError):
    """No coordinate with a unit partial derivative is available for lifting."""


class NotSurjective(PadicLieError):
    """The supplied linear functional is not surjective."""


class ZeroModP(PadicLieError):
    """Polynomial vanishes identically modulo p."""


class ZeroPolynomial(PadicLieError):
    """Polynomial is identically zero."""


class IdenticallyZeroOnV(PadicLieError):
    """Polynomial vanishes at every point of the variety."""


class PreconditionViolation(PadicLieError):
    """A documented operation precondition does not hold."""


class InvariantViolation(PadicLieError):
    """A computed result breaks an invariant the code guarantees (a bug)."""


class BracketClosureAnomaly(PadicLieError):
    """A span expected to be bracket-closed is not.

    Carries enough context to be recorded in a report instead of silently
    accepted; small primes may legitimately trigger this.
    """

    def __init__(self, message: str, *, p: int | None = None, witness=None):
        super().__init__(message)
        self.p = p
        self.witness = witness
