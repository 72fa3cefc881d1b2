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
logs before one exp).  On the real axis the gamma-family kernel and measure
need only ln |Gamma(a + ib)|^2 at a fixed real a, which one core evaluates
from Lanczos' rational form in real arithmetic (no complex power); complex
kernel arguments take the complex ln Gamma core of special.py.

On the real axis ln S2(u + id) + ln S2(u - id) is the closed-form log
ln((u^2 + d^2)/((w - u)^2 + d^2)) of S2's zero at 0 and pole at
w = omega1 + omega2, plus the smooth t-integral that special.py owns
(_ln_s2_pair_smooth, on the same t rule as its complex ln S2).  The
relativistic measure takes the pair from there; the relativistic evaluator
is a piecewise Chebyshev proxy of the smooth t-integral with the log added
back, switched to the exact exponential asymptote at large argument (both
validated in the tests).
"""
from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, KernelPoleError
from .special import (
    _ASYM_FACTOR,
    _LANCZOS_C as _LANCZOS_C_K,
    Periods,
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
_LN_2PI = math.log(2.0 * math.pi)
_LANCZOS_K = np.arange(8.0)  # k - 1 for the Lanczos terms c_k / (z - 1 + k)


class KernelFamily(str, enum.Enum):
    HYPERBOLIC = "hyperbolic"
    GAMMA = "gamma"
    RELATIVISTIC = "relativistic"


@dataclass(frozen=True)
class Coupling:
    """Coupling constant g, with periods when a relativistic form is in play.

    With periods present the standing assumption 0 < g < omega1 + omega2 is
    enforced, and gstar() = omega1 + omega2 - g is the dual coupling.
    """

    g: float
    periods: Periods | None = None

    def __post_init__(self):
        if isinstance(self.g, complex):
            raise DomainError("coupling g must be real")
        if not (math.isfinite(self.g) and self.g > 0):
            raise DomainError(f"coupling g must be positive, got {self.g!r}")
        object.__setattr__(self, "g", float(self.g))
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


def ln_cosh(x: np.ndarray) -> np.ndarray:
    x = np.abs(np.asarray(x, dtype=float))
    return x + np.log1p(np.exp(-2.0 * x)) - _LN2


def ln_sinh_abs(x: np.ndarray) -> np.ndarray:
    """log sinh|x|; -inf at 0 (callers exponentiate, giving exact 0)."""
    x = np.abs(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore"):
        return x + np.log1p(-np.exp(-2.0 * x)) - _LN2


def kernel_K(x, c: Coupling):
    """cosh(x)^(-g) for real x (scalar or array)."""
    out = np.exp(-c.g * ln_cosh(x))
    return float(out) if np.isscalar(x) else out


def kernel_K_complex(z: complex, c: Coupling) -> complex:
    """cosh(z)^(-g) by the principal branch, for complex spectral shifts."""
    return complex(np.exp(-c.g * np.log(np.cosh(complex(z)))))


def measure_hyperbolic(v, c: Coupling):
    out = np.exp(2.0 * c.g * ln_sinh_abs(v))
    return float(out) if np.isscalar(v) else out


# ---------------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------------


def _ln_hatK_vec(lam: np.ndarray, g: float) -> np.ndarray:
    """Vectorized ln Khat(lam) for complex lam (no pole screening, Im on any branch)."""
    lam = np.asarray(lam, dtype=complex)
    ln_pair = _ln_gamma_vec(0.5 * (g + 1j * lam)) + _ln_gamma_vec(0.5 * (g - 1j * lam))
    return (g - 1.0) * _LN2 - math.lgamma(g) + ln_pair


def _hatK_vec(lam: np.ndarray, g: float) -> np.ndarray:
    """Vectorized Khat(lam) without pole screening."""
    return np.exp(_ln_hatK_vec(lam, g))


def kernel_hatK(lam: complex, c: Coupling) -> complex:
    """Khat(lam) = Gamma((g+i lam)/2) Gamma((g-i lam)/2) / (2^(1-g) Gamma(g))."""
    lam = complex(lam)
    for z in (0.5 * (c.g + 1j * lam), 0.5 * (c.g - 1j * lam)):
        if _nearest_nonpositive_int(z) is not None:
            raise KernelPoleError(f"Khat pole: gamma argument {z!r} is a nonpositive integer")
    return complex(_hatK_vec(np.asarray(lam), c.g))


def _ln_abs_gamma_sq_real(a: float, b) -> np.ndarray:
    """ln |Gamma(a + ib)|^2 for a fixed real a > 0 and real b, in real arithmetic.

    Lanczos' rational form with z - 1 = (a - 1) + ib: the sum's real and
    imaginary parts come from c_k / ((a - 1 + k)^2 + b^2), and
    ln t^(z - 1/2) e^(-t) with t = a + 6.5 + ib from ln|t|^2 and arg t.
    a < 1.5 is shifted by 2 through |Gamma(z + 2)| = |z (z + 1)| |Gamma(z)|.
    """
    b = np.asarray(b, dtype=float)
    b2 = b * b
    corr = 0.0
    if a < 1.5:
        corr = np.log((a * a + b2) * ((a + 1.0) ** 2 + b2))
        a += 2.0
    s = a + _LANCZOS_K  # a - 1 + k
    inv = _LANCZOS_C_K[1:, None] / np.add.outer(s * s, b2.ravel())
    acc_re, acc_im = np.stack([s, np.ones_like(s)]) @ inv  # the sum is acc_re - ib acc_im
    acc_re = _LANCZOS_C_K[0] + acc_re.reshape(b.shape)
    acc_im = acc_im.reshape(b.shape)
    t_re = a + 6.5
    return (
        _LN_2PI
        + (a - 0.5) * np.log(t_re * t_re + b2)
        - 2.0 * b * np.arctan2(b, t_re)
        - 2.0 * t_re
        + np.log(acc_re * acc_re + b2 * acc_im * acc_im)
        - corr
    )


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
    if mu <= 0:
        raise DomainError("mu must be large positive")
    g = c.g
    return (
        (2.0 * math.pi / complex_gamma(g))
        * mu ** (g - 1.0)
        * math.exp(0.5 * math.pi * (gamma_minus_mu_base - mu))
    )


# ---------------------------------------------------------------------------
# relativistic family
# ---------------------------------------------------------------------------

class _PiecewiseCheb:
    """Piecewise Chebyshev proxy of a smooth even function on [0, xmax].

    Uniform pieces at mid, half-width h, share the node offsets h cos(theta):
    fn_grid(mid, off) gives the function at mid[:, None] + off[None, :].
    """

    def __init__(self, fn_grid, xmax: float, width: float, degree: int = 24):
        n_pieces = max(1, int(math.ceil(xmax / width)))
        self.h = 0.5 * xmax / n_pieces
        self.mid = self.h * (2.0 * np.arange(n_pieces) + 1.0)
        k = np.arange(degree + 1)
        theta = (k + 0.5) * math.pi / (degree + 1)
        y = fn_grid(self.mid, self.h * np.cos(theta))  # (n_pieces, degree + 1)
        # DCT-II style coefficients for Chebyshev-Gauss nodes; row j holds
        # every piece's c_j
        basis = np.cos(np.outer(k, theta))  # (deg+1, deg+1)
        coef = (2.0 / (degree + 1)) * (basis @ y.T)
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


# Kg tables kept at most (oldest evicted first), so coupling sweeps stay bounded
_KG_CACHE_MAX = 64
_kg_cache: dict[tuple[float, float, float], tuple] = {}
_kg_lock = threading.Lock()


def hatK_ln_evaluator(g: float):
    """Vectorized ln Khat: real-arithmetic core for real x, complex core otherwise."""
    g = float(g)
    return lambda x: (
        _ln_hatK_vec(x, g) if np.iscomplexobj(x) else _ln_hatK_real_vec(x, g)
    )


def _kg_real_tables(c: Coupling):
    """Cached (proxy, x_asym, slope, s, u^2, v^2) for ln Kg on the real axis.

    In units where the smaller period is 1 (x -> s x), the proxy fits the
    smooth ln Kg + ln((u^2+x^2)/(v^2+x^2)), u = g/2 and v = w - g/2, which
    leaves out the log of S2's zero and pole nearest the real axis; the
    evaluator adds that log back.
    """
    p = c.require_periods()
    key = (c.g, p.omega1, p.omega2)
    with _kg_lock:
        hit = _kg_cache.get(key)
    if hit is not None:
        return hit
    s = 1.0 / p.omin
    w1, w2, gn = p.omega1 * s, p.omega2 * s, c.g * s
    x_asym = _ASYM_FACTOR * max(w1, w2)
    u = 0.5 * gn
    proxy = _PiecewiseCheb(lambda m, o: -_ln_s2_pair_smooth(u, m, o, w1, w2), x_asym, 0.75)
    slope = -math.pi * (w1 + w2 - gn) / (w1 * w2)  # d ln Kg / d|x|, exact beyond x_asym
    tables = (proxy, x_asym, slope, s, u * u, (w1 + w2 - u) ** 2)
    with _kg_lock:
        _kg_cache[key] = tables
        while len(_kg_cache) > _KG_CACHE_MAX:
            del _kg_cache[next(iter(_kg_cache))]
    return tables


def kg_ln_evaluator(c: Coupling):
    """Fast vectorized ln Kg on the real axis (Kg is real positive and even)."""
    proxy, x_asym, slope, s, u2, v2 = _kg_real_tables(c)

    def ev(x: np.ndarray) -> np.ndarray:
        xn = np.abs(np.asarray(x, dtype=float)) * s
        out = np.empty_like(xn)
        far = xn > x_asym
        out[far] = slope * xn[far]
        near = ~far
        if near.any():
            xs = xn[near]
            x2 = xs * xs
            out[near] = proxy(xs) + np.log((v2 + x2) / (u2 + x2))
        return out

    return ev


def kg_real_evaluator(c: Coupling):
    """Fast vectorized Kg on the real axis."""
    ln_ev = kg_ln_evaluator(c)

    def ev(x: np.ndarray) -> np.ndarray:
        return np.exp(ln_ev(x))

    return ev


def kernel_Kg(lam: complex, c: Coupling) -> complex:
    """Kg(lam) = 1/(S2(g/2 + i lam) S2(g/2 - i lam)), any complex lam off poles."""
    p = c.require_periods()
    lam = complex(lam)
    half_g = 0.5 * c.g
    den = double_sine(half_g + 1j * lam, p) * double_sine(half_g - 1j * lam, p)
    if den == 0:
        raise KernelPoleError(f"Kg pole at lam = {lam!r} (double sine zero)")
    return 1.0 / den


def ln_measure_relativistic(v, c: Coupling) -> np.ndarray:
    """ln of S2(g +- i d) S2(+- i d) on real separations (-inf at d = 0).

    S2(+-id) is reduced with one functional-equation step to
    4 sinh^2(pi d / omega_min) S2(omega_max +- i d), which makes the
    quadratic zero at d = 0 explicit; everything stays in the log domain.
    """
    p = c.require_periods()
    s = 1.0 / p.omin
    d = np.abs(np.asarray(v, dtype=float)) * s
    w1, w2 = p.omega1 * s, p.omega2 * s
    wmax = max(w1, w2)
    ln_smooth = _re_ln_s2_pair(c.g * s, d, w1, w2) + _re_ln_s2_pair(wmax, d, w1, w2)
    with np.errstate(divide="ignore"):
        ln_sh = math.pi * d + np.log1p(-np.exp(-2.0 * math.pi * d)) - _LN2
    return 2.0 * (ln_sh + _LN2) + ln_smooth


def measure_relativistic(v, c: Coupling):
    """S2(g +- i d) S2(+- i d) on real separations d, vectorized."""
    out = np.exp(ln_measure_relativistic(v, c))
    return float(out) if np.isscalar(v) else out


def ln_measure_hyperbolic(v, c: Coupling) -> np.ndarray:
    return 2.0 * c.g * ln_sinh_abs(v)


def ln_measure_gamma(v, c: Coupling) -> np.ndarray:
    g = c.g
    d = np.abs(np.asarray(v, dtype=float))
    ln_pref = 2.0 * ((1.0 - g) * _LN2 + math.lgamma(g)) - math.log(math.pi)
    with np.errstate(divide="ignore"):
        ln_sh = 0.5 * math.pi * d + np.log1p(-np.exp(-math.pi * d)) - _LN2
        ln_d = np.log(0.5 * d)
    return ln_pref + ln_d + ln_sh - _ln_abs_gamma_sq_real(g, 0.5 * d)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def measure(kind: KernelFamily, a: float, b: float, c: Coupling):
    """Two-variable operator measure of the given family at separation a - b."""
    kind = KernelFamily(kind)
    if kind is KernelFamily.HYPERBOLIC:
        return measure_hyperbolic(a - b, c)
    if kind is KernelFamily.GAMMA:
        return measure_gamma(a - b, c)
    return measure_relativistic(a - b, c)


def eigenvalue(kind: KernelFamily, spectral: complex, label: complex, c: Coupling) -> complex:
    """Plane-wave eigenvalue of the family's one-variable integral operator.

    hyperbolic -> Khat(spectral - label); gamma -> K(spectral - label);
    relativistic -> sqrt(omega1 omega2) S2(g) Kg(spectral - label).
    """
    kind = KernelFamily(kind)
    z = complex(spectral) - complex(label)
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


def kernel_decay_rate(kind: KernelFamily, c: Coupling) -> float:
    """Envelope exponent of the family's kernel as the argument grows."""
    kind = KernelFamily(kind)
    if kind is KernelFamily.HYPERBOLIC:
        return c.g
    if kind is KernelFamily.GAMMA:
        return 0.5 * math.pi
    p = c.require_periods()
    return math.pi * c.gstar() / p.product


def measure_growth_rate(kind: KernelFamily, c: Coupling) -> float:
    """Envelope exponent of the family's measure as the separation grows."""
    return 2.0 * kernel_decay_rate(kind, c)


def kernel_pole_distance(kind: KernelFamily, c: Coupling) -> float:
    """Distance from the real axis to the nearest kernel singularity.

    Quadrature panels spanning a kernel factor must stay below ~1.6x this
    scale for the Gauss rules to converge at full order.
    """
    kind = KernelFamily(kind)
    if kind is KernelFamily.HYPERBOLIC:
        return 0.5 * math.pi
    if kind is KernelFamily.GAMMA:
        return c.g
    return 0.5 * c.g


def exponent_scale(kind: KernelFamily, c: Coupling) -> float:
    """Scale kappa in the plane-wave convention e^(i kappa lambda x)."""
    if KernelFamily(kind) is KernelFamily.RELATIVISTIC:
        return 2.0 * math.pi / c.require_periods().product
    return 1.0
