"""Exception taxonomy for the hyperreal workbench.

Every mathematical failure raises a subclass of :class:`MathError`; the CLI
maps those to exit code 1 and prints a single machine-parseable line naming
the error case.  Malformed input raises :class:`ParseError` (exit code 2).
"""

from __future__ import annotations


class MathError(Exception):
    """Base class for domain and precondition failures of math operations."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)

    @property
    def case(self) -> str:
        return type(self).__name__


class DivisionByZero(MathError):
    """Inverse or quotient of the zero element."""


class NonPositiveLeading(MathError):
    """Root of a series whose leading coefficient is not positive."""


class TranscendentalOnUnlimited(MathError):
    """Analytic map applied to an unlimited (infinite) argument."""


class DomainError(MathError):
    """Argument outside the domain of the requested operation."""


class NotInfinitesimal(MathError):
    """Order-ideal generator that is not a nonzero infinitesimal."""


class NonSmoothAtPoint(MathError):
    """Jet extraction at a point where the expression is not smooth."""


class UnsupportedNode(MathError):
    """Symbolic derivative requested for a non-algebraic node."""


class ZeroVelocity(MathError):
    """Tangent or curvature at a parameter with vanishing velocity."""


class OrderViolation(MathError):
    """Lower curve exceeds upper curve at a sample point."""


class NegativeRadius(MathError):
    """Revolution measure with a negative radius sample."""


class ZeroMass(MathError):
    """Centroid of a region whose mass sum is zero."""


class DepthExceeded(MathError):
    """A partition passed a cap: a gauge partition's bisection depth or cell
    count, or the cells of a grid."""


class UnknownFunctional(MathError):
    """Supernearness probe with a generator lacking a closed form."""


class OracleFailure(MathError):
    """Quadrature oracle failed to converge within its interval cap."""


class ApproxOverflow(MathError):
    """Constant approximation would exceed the representable magnitude cap."""


class PrecisionExhausted(MathError):
    """A probe needs orders that no window up to the ceiling certifies."""


class ParseError(Exception):
    """Malformed textual input; carries the character offset."""

    def __init__(self, pos: int, expected: str, found: str):
        self.pos = pos
        self.expected = expected
        self.found = found
        super().__init__(f"expected {expected} at offset {pos}, found {found}")
