"""Kernel, measure and eigenvalue functions of the three operator families.

Families and their two-point building blocks:

  hyperbolic    K(x)    = cosh(x)^(-g)                                  (position side)
  gamma         Khat(l) = Gamma((g+il)/2) Gamma((g-il)/2) / (2^(1-g) Gamma(g))
  relativistic  Kg(l)   = 1 / (S2(g/2 + il) S2(g/2 - il))

Measures of the two-variable operators (f(x +- y) means f(x+y) f(x-y)):

  hyperbolic    sinh(|a-b|)^(2g)
  gamma         (2^(1-g) Gamma(g))^2 / (Gamma(g +- i(a-b)/2) Gamma(+- i(a-b)/2))
  relativistic  S2(g +- i(a-b)) S2(+- i(a-b))

Real powers of positive quantities are taken in the log domain, and measure
zeros at coincident arguments come out as exact 0 rather than through gamma or
double-sine poles.  Real-argument kernels additionally expose fast vectorized
evaluators for the operator quadratures, in log form (the operators sum the
logs before one exp).  special.py owns every ln Gamma core: on the real axis
the gamma-family kernel and measure need only ln |Gamma(a + ib)|^2 at a
fixed real a, which its real-arithmetic core evaluates (no complex power),
and complex kernel arguments take its complex ln Gamma core.

On the real axis ln S2(u + id) + ln S2(u - id) is the closed-form log
ln((u^2 + d^2)/((w - u)^2 + d^2)) of S2's zero at 0 and pole at
w = omega1 + omega2, plus the smooth t-integral that special.py owns
(_ln_s2_pair_smooth, on the same t rule as its complex ln S2), switched
to the exact exponential asymptote at large argument (_re_ln_s2_pair).  The
relativistic measure and the relativistic evaluator both take the pair from
there: the measure with its own t-integral, the evaluator with a cached
piecewise Chebyshev proxy of it as the smooth part (both validated in the
tests), of degree 12 on pieces at most 0.375 smaller periods wide: as many
t-integral values per build as degree 24 on pieces twice as wide, and half
the Clenshaw steps per evaluation.
"""
from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, KernelPoleError
from .quad import _complex, _exp_or_zero, _finite, _real
from .special import (
    _ASYM_FACTOR,
    Periods,
    _ln_abs_gamma_sq_real,
    _ln_gamma_vec,
    _ln_s2_pair_smooth,
    _nearest_nonpositive_int,
    _re_ln_s2_pair,
    complex_gamma,
    double_sine,
)

__all__ = [
    "Coupling",
    "KernelFamily",
    "kernel_K",
    "kernel_hatK",
    "kernel_Kg",
    "measure",
    "eigenvalue",
    "hatK_asymptotic",
]

_LN2 = math.log(2.0)


class KernelFamily(str, enum.Enum):
    HYPERBOLIC = "hyperbolic"
    GAMMA = "gamma"
    RELATIVISTIC = "relativistic"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown kernel family {value!r}; valid: {[f.value for f in cls]}")


@dataclass(frozen=True)
class Coupling:
    """Coupling constant g, with periods when a relativistic form is in play.

    With periods present the standing assumption 0 < g < omega1 + omega2 is
    enforced, and gstar() = omega1 + omega2 - g is the dual coupling.
    """

    g: float
    periods: Periods | None = None

    def __post_init__(self):
        if not _real(self.g, "coupling g", finite=True) > 0:
            raise DomainError(f"coupling g must be positive, got {self.g!r}")
        object.__setattr__(self, "g", float(self.g))
        if not isinstance(self.periods, (Periods, type(None))):
            raise DomainError(f"periods must be a Periods record, got {self.periods!r}")
        if self.periods is not None and not self.g < self.periods.total:
            raise DomainError(
                f"need 0 < g < omega1 + omega2, got g = {self.g}, "
                f"omega1 + omega2 = {self.periods.total}"
            )

    def gstar(self) -> float:
        if self.periods is None:
            raise DomainError("gstar requires periods")
        # exact involution: a coupling built by dual() remembers its source
        src = getattr(self, "_dual_src", None)
        if src is not None:
            return src.g
        return self.periods.total - self.g

    def dual(self) -> "Coupling":
        src = getattr(self, "_dual_src", None)
        if src is not None:
            return src
        d = Coupling(self.gstar(), self.periods)
        object.__setattr__(d, "_dual_src", self)
        return d

    def require_periods(self) -> Periods:
        if self.periods is None:
            raise DomainError("this operation requires a Coupling with periods")
        return self.periods


# ---------------------------------------------------------------------------
# hyperbolic family
# ---------------------------------------------------------------------------


def _real_arg(x) -> np.ndarray:
    """x as a float array; DomainError for a complex x, which the cast would cut to its real part."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise DomainError("the real-axis kernel and measure evaluators take real arguments only")
    return x.astype(float, copy=False)


def ln_cosh(x: np.ndarray) -> np.ndarray:
    x = np.abs(_real_arg(x))
    return x + np.log1p(np.exp(-2.0 * x)) - _LN2


def ln_sinh_abs(x: np.ndarray) -> np.ndarray:
    """log sinh|x|; -inf at 0 (callers exponentiate, giving exact 0)."""
    x = np.abs(_real_arg(x))
    with np.errstate(divide="ignore"):
        return x + np.log1p(-np.exp(-2.0 * x)) - _LN2


def kernel_K(x, c: Coupling):
    """cosh(x)^(-g) for real x: an array, or one real number (+-inf, not NaN)."""
    if not isinstance(x, np.ndarray):
        # ln_cosh in Python floats, where -2x past the double range is -inf
        x = abs(_real(x, "kernel_K argument"))
        return math.exp(-c.g * (x + math.log1p(math.exp(-2.0 * x)) - _LN2))
    return np.exp(-c.g * ln_cosh(x))


def kernel_K_complex(z: complex, c: Coupling) -> complex:
    """cosh(z)^(-g) by the principal branch, for complex spectral shifts."""
    try:
        ln = cmath.log(cmath.cosh(z))
    except OverflowError:  # |Re z| > 710: cosh z = e^(+-z)/2 to double precision
        y = z.imag if z.real > 0 else -z.imag
        ln = complex(abs(z.real) - _LN2, math.atan2(math.sin(y), math.cos(y)))
    return _exp_or_zero(-c.g * ln, "cosh(z)^(-g) overflowed at z = {!r}", z)


def measure_hyperbolic(v, c: Coupling):
    out = np.exp(2.0 * c.g * ln_sinh_abs(v))
    return float(out) if np.isscalar(v) else out


# ---------------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------------


def _ln_hatK_vec(lam, g: float):
    """ln Khat(lam) at complex lam, one point or an array (no pole screening, Im on any branch)."""
    ln_pair = _ln_gamma_vec(0.5 * (g + 1j * lam)) + _ln_gamma_vec(0.5 * (g - 1j * lam))
    return (g - 1.0) * _LN2 - math.lgamma(g) + ln_pair


def _hatK_vec(lam: np.ndarray, g: float) -> np.ndarray:
    """Vectorized Khat(lam) without pole screening."""
    return np.exp(_ln_hatK_vec(lam, g))


def kernel_hatK(lam: complex, c: Coupling) -> complex:
    """Khat(lam) = Gamma((g+i lam)/2) Gamma((g-i lam)/2) / (2^(1-g) Gamma(g)).

    Gives 0 where Khat underflows and raises GammaOverflowError where it is
    not representable.
    """
    lam = _complex(lam, "kernel_hatK")
    for z in (0.5 * (c.g + 1j * lam), 0.5 * (c.g - 1j * lam)):
        if _nearest_nonpositive_int(z) is not None:
            raise KernelPoleError(f"Khat pole: gamma argument {z!r} is a nonpositive integer")
    return _exp_or_zero(_ln_hatK_vec(lam, c.g), "Khat is not representable at lam = {!r}", lam)


def _ln_hatK_real_vec(x: np.ndarray, g: float) -> np.ndarray:
    """ln Khat on the real axis, overflow-safe for large |x|."""
    x = np.asarray(x, dtype=float)
    return (g - 1.0) * _LN2 - math.lgamma(g) + _ln_abs_gamma_sq_real(0.5 * g, 0.5 * x)


def _hatK_real_vec(x: np.ndarray, g: float) -> np.ndarray:
    """Khat on the real axis (positive), vectorized."""
    return np.exp(_ln_hatK_real_vec(x, g))


def measure_gamma(v, c: Coupling):
    """Gamma-family measure on real separations, in pole-free smooth form.

    1/(Gamma(i d/2) Gamma(-i d/2)) = (d/2) sinh(pi d/2) / pi collapses the
    zero at d = 0 to an explicit factor, so coincident arguments give exact 0.
    """
    out = np.exp(ln_measure_gamma(v, c))
    return float(out) if np.isscalar(v) else out


def hatK_asymptotic(gamma_minus_mu_base: float, mu: float, c: Coupling) -> complex:
    """Large-mu form of Khat(gamma - mu): (2 pi / Gamma(g)) mu^(g-1) e^(pi (gamma-mu)/2)."""
    gamma_minus_mu_base = _real(gamma_minus_mu_base, "gamma_minus_mu_base", finite=True)
    if _real(mu, "mu", finite=True) <= 0:
        raise DomainError("mu must be large positive")
    g = c.g
    try:
        out = (2.0 * math.pi / complex_gamma(g)) * mu ** (g - 1.0) * math.exp(
            0.5 * math.pi * (gamma_minus_mu_base - mu)
        )
    except OverflowError:
        out = math.inf
    return _finite(out, "hatK_asymptotic overflowed at gamma - mu = {!r}", gamma_minus_mu_base - mu)


# ---------------------------------------------------------------------------
# relativistic family
# ---------------------------------------------------------------------------

class _PiecewiseCheb:
    """Piecewise Chebyshev proxy of a smooth even function on [0, xmax].

    Uniform pieces at mid, half-width h, share the node offsets h cos(theta):
    fn_grid(mid, off) gives the function at mid[:, None] + off[None, :].
    Chebyshev series converge at a rate set by each piece's Bernstein
    ellipse, so halving the width about halves the degree a given accuracy
    needs; every evaluation costs DEGREE Clenshaw steps.
    """

    DEGREE = 12

    def __init__(self, fn_grid, xmax: float, width: float):
        n_pieces = max(1, int(math.ceil(xmax / width)))
        self.h = 0.5 * xmax / n_pieces
        self.mid = self.h * (2.0 * np.arange(n_pieces) + 1.0)
        k = np.arange(self.DEGREE + 1)
        theta = (k + 0.5) * math.pi / k.size
        y = fn_grid(self.mid, self.h * np.cos(theta))  # (n_pieces, degree + 1)
        # DCT-II style coefficients for Chebyshev-Gauss nodes; row j holds
        # every piece's c_j
        basis = np.cos(np.outer(k, theta))  # (deg+1, deg+1)
        coef = (2.0 / k.size) * (basis @ y.T)
        coef[0] *= 0.5
        self.coef = coef

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # fmin/fmax rather than clip: a NaN goes to the last piece and stays NaN
        idx = np.fmax(np.fmin(x / (2.0 * self.h), self.mid.size - 1), 0.0).astype(np.intp)
        s = (x - self.mid[idx]) / self.h
        # Clenshaw b_j = 2 s b_(j+1) - b_(j+2) + c_j, gathering row c_j per step
        s2 = 2.0 * s
        b1, b2, tmp = np.zeros_like(s), np.zeros_like(s), np.empty_like(s)
        for row in self.coef[:0:-1]:
            np.multiply(s2, b1, out=tmp)
            np.subtract(tmp, b2, out=b2)
            b2 += row.take(idx, out=tmp, mode="clip")
            b1, b2 = b2, b1
        return s * b1 - b2 + self.coef[0].take(idx)


def hatK_ln_evaluator(g: float):
    """Vectorized ln Khat: real-arithmetic core for real x, complex core otherwise."""
    g = float(g)
    return lambda x: (
        _ln_hatK_vec(x, g) if np.iscomplexobj(x) else _ln_hatK_real_vec(x, g)
    )


@functools.lru_cache(maxsize=64)  # keyed on g and periods; bounded for coupling sweeps
def _kg_real_tables(c: Coupling):
    """Cached (proxy, s, u, w1, w2) for ln Kg on the real axis.

    In units where the smaller period is 1 (x -> s x, w1 and w2 the scaled
    periods), ln Kg(x) is minus the pair ln S2(u + isx) + ln S2(u - isx),
    u = s g/2, and the proxy fits that pair's smooth t-integral on pieces at
    most 0.375 wide.  At Periods(1, 1.7) that is 25 pieces of 13 nodes, 325
    t-integral values, as many as degree 24 on pieces twice as wide needs:
    the narrow pieces halve the Clenshaw steps at the same build cost.
    """
    p = c.require_periods()
    s = 1.0 / p.omin
    w1, w2 = p.omega1 * s, p.omega2 * s
    u = 0.5 * c.g * s
    proxy = _PiecewiseCheb(
        lambda m, o: _ln_s2_pair_smooth(u, m, o, w1, w2), _ASYM_FACTOR * max(w1, w2), 0.375
    )
    return proxy, s, u, w1, w2


def kg_ln_evaluator(c: Coupling):
    """Fast vectorized ln Kg on the real axis (Kg is real positive and even):
    minus _re_ln_s2_pair with the cached proxy as its smooth part."""
    proxy, s, u, w1, w2 = _kg_real_tables(c)
    return lambda x: -_re_ln_s2_pair(u, _real_arg(x) * s, w1, w2, proxy)


def kg_real_evaluator(c: Coupling):
    """Fast vectorized Kg on the real axis."""
    ln_ev = kg_ln_evaluator(c)
    return lambda x: np.exp(ln_ev(x))


def kernel_Kg(lam: complex, c: Coupling) -> complex:
    """Kg(lam) = 1/(S2(g/2 + i lam) S2(g/2 - i lam)), any complex lam off poles.

    Where both factors are in double_sine's asymptotic region (|Re lam| past
    its switch, with Im of opposite signs), the quadratic terms of their
    B22s cancel: ln Kg = sign(Re lam) pi lam (g - w)/(omega1 omega2), which
    underflows to 0 at large |Re lam|.
    """
    p = c.require_periods()
    lam = _complex(lam, "kernel_Kg")
    if abs(lam.real) > _ASYM_FACTOR * p.omax:
        ln = math.copysign(math.pi, lam.real) * lam * ((c.g - p.total) / p.product)
        return _exp_or_zero(ln, "Kg overflowed at lam = {!r}", lam)
    half_g = 0.5 * c.g
    den = double_sine(half_g + 1j * lam, p) * double_sine(half_g - 1j * lam, p)
    if den == 0:
        raise KernelPoleError(f"Kg pole at lam = {lam!r} (double sine zero)")
    return 1.0 / den if cmath.isfinite(den) else 0j  # |den| past the double range


def ln_measure_relativistic(v, c: Coupling) -> np.ndarray:
    """ln of S2(g +- i d) S2(+- i d) on real separations (-inf at d = 0).

    S2(+-id) is reduced with one functional-equation step to
    4 sinh^2(pi d / omega_min) S2(omega_max +- i d), which makes the
    quadratic zero at d = 0 explicit; everything stays in the log domain.
    """
    p = c.require_periods()
    s = 1.0 / p.omin
    d = np.abs(_real_arg(v)) * s
    w1, w2 = p.omega1 * s, p.omega2 * s
    wmax = max(w1, w2)
    ln_smooth = _re_ln_s2_pair(c.g * s, d, w1, w2) + _re_ln_s2_pair(wmax, d, w1, w2)
    return 2.0 * (ln_sinh_abs(math.pi * d) + _LN2) + ln_smooth


def measure_relativistic(v, c: Coupling):
    """S2(g +- i d) S2(+- i d) on real separations d, vectorized."""
    out = np.exp(ln_measure_relativistic(v, c))
    return float(out) if np.isscalar(v) else out


def ln_measure_hyperbolic(v, c: Coupling) -> np.ndarray:
    return 2.0 * c.g * ln_sinh_abs(v)


def ln_measure_gamma(v, c: Coupling) -> np.ndarray:
    g = c.g
    d = np.abs(_real_arg(v))
    ln_pref = 2.0 * ((1.0 - g) * _LN2 + math.lgamma(g)) - math.log(math.pi)
    with np.errstate(divide="ignore"):
        ln_d = np.log(0.5 * d)
    return ln_pref + ln_d + ln_sinh_abs(0.5 * math.pi * d) - _ln_abs_gamma_sq_real(g, 0.5 * d)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def measure(kind: KernelFamily, a: float, b: float, c: Coupling):
    """Two-variable operator measure of the given family at separation a - b.

    At scalar a and b, a measure past the double range raises GammaOverflowError;
    on arrays it is +inf.
    """
    kind = KernelFamily(kind)
    scalar = not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray)
    if scalar:
        a, b = _real(a, "measure a", finite=True), _real(b, "measure b", finite=True)
    if not np.isfinite(a - b).all():
        raise DomainError("measure needs finite arguments")
    if kind is KernelFamily.HYPERBOLIC:
        fn = measure_hyperbolic
    else:
        fn = measure_gamma if kind is KernelFamily.GAMMA else measure_relativistic
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is a NaN past the double range
        out = fn(a - b, c)
    if not scalar:  # there the measure grows without bound
        return np.where(np.isnan(out), np.inf, out)
    return _finite(out, kind.value + " measure overflowed at a - b = {!r}", a - b)


def eigenvalue(kind: KernelFamily, spectral: complex, label: complex, c: Coupling) -> complex:
    """Plane-wave eigenvalue of the family's one-variable integral operator.

    hyperbolic -> Khat(spectral - label); gamma -> K(spectral - label);
    relativistic -> sqrt(omega1 omega2) S2(g) Kg(spectral - label).
    """
    kind = KernelFamily(kind)
    z = _complex(spectral, "eigenvalue spectral") - _complex(label, "eigenvalue label")
    if kind is KernelFamily.HYPERBOLIC:
        return kernel_hatK(z, c)
    if kind is KernelFamily.GAMMA:
        if abs(z.imag) < 1e-14:
            return complex(kernel_K(z.real, c))
        return kernel_K_complex(z, c)
    p = c.require_periods()
    return (
        math.sqrt(p.product) * double_sine(c.g, p) * kernel_Kg(z, c)
    )


def exponent_scale(kind: KernelFamily, c: Coupling) -> float:
    """Scale kappa in the plane-wave convention e^(i kappa lambda x)."""
    if KernelFamily(kind) is KernelFamily.RELATIVISTIC:
        return 2.0 * math.pi / c.require_periods().product
    return 1.0
