"""Structured exceptions shared across the package."""
from __future__ import annotations


class HypqError(Exception):
    """Base class for all package errors."""


class DomainError(HypqError, ValueError):
    """Input violates a documented precondition."""


class StripError(DomainError):
    """Argument lies outside the analytic strip of an integral representation."""


class GammaPoleError(DomainError):
    """Gamma function evaluated at a nonpositive integer."""


class GammaOverflowError(HypqError, OverflowError):
    """|Gamma(z)| exceeds the representable range; use log_complex_gamma."""


class LatticePoleError(DomainError):
    """Double sine evaluated at a pole of its period lattice."""

    def __init__(self, m: int, k: int):
        self.m = m
        self.k = k
        super().__init__(f"double sine pole at m*omega1 + k*omega2 with (m, k) = ({m}, {k})")


class KernelPoleError(DomainError):
    """Kernel special function evaluated at one of its poles."""


class QuadratureError(HypqError):
    """Base class for quadrature failures."""


class _ShortOfTolerance(QuadratureError):
    """A quadrature stopped short of its tolerance; carries the best
    available estimate, its error bound and the nodes used (or planned)."""

    head = ""

    def __init__(self, estimate: complex, error_bound: float, nodes_used, message: str = ""):
        self.estimate = estimate
        self.error_bound = error_bound
        self.nodes_used = nodes_used
        super().__init__(
            message
            or f"{self.head} after {nodes_used} evaluations; "
            f"best estimate {estimate!r} with error bound {error_bound:.3e}"
        )


class BudgetExceededError(_ShortOfTolerance):
    """Node budget exhausted before reaching the requested tolerance.

    Carries the best available estimate and its error bound.  A layout
    refused before its first evaluation carries estimate NaN, bound inf,
    the planned node count and a message of its own.
    """

    head = "node budget exhausted"


class NonConvergenceError(_ShortOfTolerance):
    """Adaptive rounds exhausted before reaching the requested tolerance.

    Carries the estimate, its error bound and the nodes used, as
    BudgetExceededError does.
    """

    head = "no convergence in the round limit"


class NonFiniteSampleError(QuadratureError):
    """Integrand returned NaN/Inf at some abscissa."""

    def __init__(self, abscissa: float):
        self.abscissa = abscissa
        super().__init__(f"integrand not finite at abscissa {abscissa!r}")


class DivergenceError(DomainError):
    """Composed integrand has nonpositive decay rate; the integral diverges."""


class ContinuationError(DomainError):
    """Requested analytic continuation would drag integrand poles across the contour."""


class UnknownCheckError(HypqError, KeyError):
    """Requested check name is not registered."""

    def __str__(self) -> str:  # the message as given, not KeyError's repr of it
        return str(self.args[0]) if self.args else ""


class ConfigError(HypqError, ValueError):
    """Malformed run configuration."""
