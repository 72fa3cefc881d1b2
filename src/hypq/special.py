"""Complex gamma function and the double sine function S2(z | omega1, omega2).

The double sine function is the meromorphic function fixed by the two
functional equations

    S2(z) / S2(z + omega1) = 2 sin(pi z / omega2),
    S2(z) / S2(z + omega2) = 2 sin(pi z / omega1),

the inversion relation S2(z) S2(omega1 + omega2 - z) = 1, poles at
m*omega1 + k*omega2 (m, k >= 1) and zeros at -m*omega1 - k*omega2
(m, k >= 0).  Inside the strip 0 < Re z < omega1 + omega2 its logarithm has
the integral representation

    ln S2(z) = int_0^inf dt/(2t) [ sinh((2z - w)t) / (sinh(omega1 t) sinh(omega2 t))
                                   - (2z - w) / (omega1 omega2 t) ],   w = omega1 + omega2,

which is what this module evaluates numerically.  Everything here assumes
real positive periods; complex periods are rejected at construction.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GammaOverflowError,
    GammaPoleError,
    LatticePoleError,
    StripError,
)
from .quad import _panels_on

__all__ = [
    "AnalyticStrip",
    "Periods",
    "complex_gamma",
    "log_complex_gamma",
    "log_double_sine",
    "double_sine",
    "double_sine_near_zero",
    "b22",
    "double_sine_asymptotic",
]

# ---------------------------------------------------------------------------
# Complex gamma via the Lanczos rational approximation.
#
# Coefficient set: g = 7, n = 9 (Godfrey's coefficients, the same set used by
# Boost.Math and the GNU Scientific Library documentation).  Relative error of
# the approximation is below ~1e-13 throughout Re z >= 0.5; arguments with
# Re z < 0.5 go through the reflection formula.
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_POLE_TOL = 1e-12


def _lanczos_core(z: np.ndarray) -> np.ndarray:
    """Lanczos gamma for Re z >= 0.5 (vectorized, no domain checks)."""
    zm1 = z - 1.0
    acc = np.full_like(zm1, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (zm1 + 0.5) * np.exp(-t) * acc


def _gamma_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized Gamma(z); poles propagate as inf/nan, callers must screen."""
    z = np.asarray(z, dtype=complex)
    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z)
    g = _lanczos_core(zz)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(refl, np.pi / (np.sin(np.pi * z) * g), g)
    return out


def _nearest_nonpositive_int(z: complex) -> int | None:
    n = round(z.real)
    if n <= 0 and abs(z - n) <= _POLE_TOL:
        return n
    return None


def complex_gamma(z: complex) -> complex:
    """Gamma(z) for complex z, accurate to >= 12 significant digits for |z| <= 50.

    Raises GammaPoleError at (within 1e-12 of) nonpositive integers and
    GammaOverflowError when the result exceeds the double range; the latter
    suggests log_complex_gamma.
    """
    z = complex(z)
    if _nearest_nonpositive_int(z) is not None:
        raise GammaPoleError(f"gamma pole at z = {z!r}")
    with np.errstate(invalid="ignore", over="ignore"):
        out = complex(_gamma_vec(np.asarray(z)))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise GammaOverflowError(
            f"|Gamma({z!r})| is not representable; request log_complex_gamma instead"
        )
    return out


def log_complex_gamma(z: complex) -> complex:
    """log Gamma(z) via the Lanczos sum in log form.

    The imaginary part is continuous on Re z >= 0.5 but is not glued to the
    canonical branch across the reflection; intended for magnitude-safe
    evaluation, exp(log_complex_gamma(z)) == Gamma(z) up to rounding.
    """
    z = complex(z)
    if _nearest_nonpositive_int(z) is not None:
        raise GammaPoleError(f"gamma pole at z = {z!r}")
    if z.real < 0.5:
        return (
            math.log(math.pi)
            - np.log(complex(np.sin(np.pi * z)))
            - log_complex_gamma(1.0 - z)
        )
    zm1 = z - 1.0
    acc = _LANCZOS_C[0] + sum(
        _LANCZOS_C[k] / (zm1 + k) for k in range(1, len(_LANCZOS_C))
    )
    t = zm1 + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (zm1 + 0.5) * np.log(t) - t + np.log(acc)


# ---------------------------------------------------------------------------
# Periods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticStrip:
    """Open vertical strip 0 < Re z < hi where the integral representation holds."""

    lo: float
    hi: float

    def contains(self, z: complex) -> bool:
        return self.lo < complex(z).real < self.hi


@dataclass(frozen=True)
class Periods:
    """The pair of positive real quasi-periods of the double sine function."""

    omega1: float
    omega2: float

    def __post_init__(self):
        for name in ("omega1", "omega2"):
            v = getattr(self, name)
            if isinstance(v, complex):
                raise DomainError(f"{name} must be real, got {v!r}")
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be a positive real, got {v!r}")
            object.__setattr__(self, name, float(v))

    @property
    def total(self) -> float:
        return self.omega1 + self.omega2

    @property
    def omin(self) -> float:
        return min(self.omega1, self.omega2)

    @property
    def omax(self) -> float:
        return max(self.omega1, self.omega2)

    @property
    def product(self) -> float:
        return self.omega1 * self.omega2

    def strip(self) -> AnalyticStrip:
        return AnalyticStrip(0.0, self.total)


# ---------------------------------------------------------------------------
# ln S2 inside the strip
# ---------------------------------------------------------------------------

# e^{-rate*T} < 1e-17 at rate*T = 39.2
_TAIL_EXPONENT = 39.2
# switch to the B22 asymptotic at |Im z| > _ASYM_FACTOR * omega_max
# (correction there is O(e^{-2 pi Im z / omega_max}) ~ 1e-15)
_ASYM_FACTOR = 5.5
# most functional-equation steps double_sine takes before refusing the argument
_MAX_SHIFT_STEPS = 1 << 20


def _log_s2_strip(z: complex, w1: float, w2: float) -> complex:
    """ln S2(z) by the t-integral; requires 0 < Re z < w1 + w2 strictly."""
    w = w1 + w2
    a = 2.0 * z - w
    c = a / (w1 * w2)
    gap = min(z.real, w - z.real)
    rate = 2.0 * gap
    t_max = _TAIL_EXPONENT / rate
    freq = 2.0 * abs(z.imag)
    # integrand poles at t = i pi k / omega limit the panel width
    width = min(8.0 / max(freq, rate, 1.0), t_max / 4.0, 1.6 * math.pi / max(w1, w2))
    t, wt = _panels_on(0.0, t_max, width)
    # overflow-safe form of sinh(a t) / (sinh(w1 t) sinh(w2 t)): both surviving
    # exponents are negative throughout the strip
    ratio = (
        2.0
        * (np.exp((a - w) * t) - np.exp(-(a + w) * t))
        / ((1.0 - np.exp(-2.0 * w1 * t)) * (1.0 - np.exp(-2.0 * w2 * t)))
    )
    integrand = (ratio - c / t) / (2.0 * t)
    # analytic remainder of the subtracted-counterterm tail beyond t_max
    return complex(np.dot(wt, integrand)) - c / (2.0 * t_max)


def log_double_sine(z: complex, p: Periods) -> complex:
    """ln S2(z | omega) for Re z strictly inside (0, omega1 + omega2).

    Raises StripError outside the strip; callers must shift with the
    functional equations first (double_sine does this automatically).
    """
    z = complex(z)
    if not p.strip().contains(z):
        raise StripError(
            f"Re z = {z.real!r} outside the analytic strip (0, {p.total!r})"
        )
    # homogeneity S2(gz | g*omega) = S2(z | omega): normalize the small period
    # to 1 so the truncation length is well conditioned for extreme periods
    s = 1.0 / p.omin
    return _log_s2_strip(z * s, p.omega1 * s, p.omega2 * s)


# ---------------------------------------------------------------------------
# Full-plane double sine
# ---------------------------------------------------------------------------


def b22(z: complex, p: Periods) -> complex:
    """The quadratic polynomial governing the large-|Im z| behavior of S2."""
    ww = p.product
    w = p.total
    return (z * z - w * z) / ww + (p.omega1**2 + 3.0 * ww + p.omega2**2) / (6.0 * ww)


def double_sine_asymptotic(z: complex, p: Periods) -> complex:
    """Leading large-argument form exp(sign(Im z) * i pi B22(z)/2).

    Valid off the real axis; raises DomainError at Im z == 0 where the sign
    is undefined.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise DomainError("asymptotic form undefined on the real axis (Im z = 0)")
    sign = 1.0 if z.imag > 0 else -1.0
    return cmath.exp(sign * 0.5j * math.pi * b22(z, p))


def _lattice_index(z: complex, p: Periods, kind: str) -> tuple[int, int] | None:
    """Indices (m, k) if z sits within 1e-12 of a pole/zero lattice point."""
    tol = 1e-12 * max(1.0, abs(z))
    if abs(z.imag) > tol:
        return None
    x = z.real if kind == "pole" else -z.real
    lo = 1 if kind == "pole" else 0
    if x < lo * (p.omega1 + p.omega2) - 1.0:
        return None
    for k in range(lo, int(x / p.omega2) + 2):
        m = round((x - k * p.omega2) / p.omega1)
        if m >= lo and abs(x - (m * p.omega1 + k * p.omega2)) <= tol:
            return m, k
    return None


def double_sine(z: complex, p: Periods) -> complex:
    """S2(z | omega) on the whole complex plane (real positive periods).

    Exact 0 is returned at lattice zeros; LatticePoleError is raised at
    lattice poles.  Arguments outside the analytic strip are reduced with
    the functional equations, shifting by the larger period; more than 64
    shift steps triggers an ill-conditioning warning, and a non-finite z, or
    |Re z| beyond 2^20 steps below the asymptotic region, is refused with
    DomainError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"double_sine needs a finite argument, got {z!r}")
    if abs(z.imag) <= _ASYM_FACTOR * p.omax and abs(z.real) > _MAX_SHIFT_STEPS * p.omax:
        raise DomainError(f"double_sine refuses Re z = {z.real!r}: too many shift steps")
    zero = _lattice_index(z, p, "zero")
    if zero is not None:
        return 0.0 + 0.0j
    pole = _lattice_index(z, p, "pole")
    if pole is not None:
        raise LatticePoleError(*pole)

    if abs(z.imag) > _ASYM_FACTOR * p.omax:
        return double_sine_asymptotic(z, p)

    # normalized units: omega_min -> 1
    s = 1.0 / p.omin
    zn = z * s
    wmax = p.omax * s
    total = 1.0 + wmax
    # land Re z in a band with a healthy gap to both strip edges
    lo = 0.45
    hi = total - 0.45
    log_factor = 0.0 + 0.0j
    steps = 0
    while zn.real < lo:
        # S2(z) = 2 sin(pi z / omega_min) S2(z + omega_max)
        log_factor += np.log(2.0 * np.sin(np.pi * zn))
        zn += wmax
        steps += 1
    while zn.real > hi:
        # S2(z) = S2(z - omega_max) / (2 sin(pi (z - omega_max) / omega_min))
        zn -= wmax
        log_factor -= np.log(2.0 * np.sin(np.pi * zn))
        steps += 1
    if steps > 64:
        warnings.warn(
            f"double_sine used {steps} functional-equation steps; "
            "result may be ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        out = cmath.exp(log_factor + _log_s2_strip(zn, p.omega1 * s, p.omega2 * s))
        finite = math.isfinite(out.real) and math.isfinite(out.imag)
    except OverflowError:
        finite = False
    if not finite:
        raise GammaOverflowError(f"double_sine overflowed at z = {z!r}")
    return out


def double_sine_near_zero(z: complex, p: Periods) -> complex:
    """S2(z)/z evaluated stably for |z| < 0.1 min(omega); continuous at 0.

    At z = 0 the value is 2 pi / sqrt(omega1 omega2).
    """
    z = complex(z)
    if abs(z) >= 0.1 * p.omin:
        raise DomainError(f"|z| = {abs(z)!r} not within 0.1*min(omega) of the zero")
    s = 1.0 / p.omin
    zn = z * s
    wmax = p.omax * s
    # S2(z)/z = [2 sin(pi z')/z'] * S2(z' + omega_max') / omega_min
    w = np.pi * zn
    if abs(w) < 1e-8:
        sinc = np.pi * (1.0 - w * w / 6.0)
    else:
        sinc = np.sin(w) / zn
    shifted = cmath.exp(_log_s2_strip(zn + wmax, p.omega1 * s, p.omega2 * s))
    return complex(2.0 * sinc * shifted * s)
