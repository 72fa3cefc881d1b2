"""Complex gamma function and the double sine function S2(z | omega1, omega2).

The double sine function is the meromorphic function fixed by the two
functional equations

    S2(z) / S2(z + omega1) = 2 sin(pi z / omega2),
    S2(z) / S2(z + omega2) = 2 sin(pi z / omega1),

the inversion relation S2(z) S2(omega1 + omega2 - z) = 1, poles at
m*omega1 + k*omega2 (m, k >= 1) and zeros at -m*omega1 - k*omega2
(m, k >= 0).  Inside the strip 0 < Re z < w = omega1 + omega2 its logarithm
is Ruijsenaars' integral (J. Math. Phys. 38, 1997)

    int_0^inf dt/(2t) [sinh((2z-w)t) / (sinh(omega1 t) sinh(omega2 t)) - (2z-w)/(omega1 omega2 t)].

The sinh ratio is lead / D, D(t) = (1 - e^(-2 omega1 t))(1 - e^(-2 omega2 t))
and lead = 2 (e^(-2(w - z)t) - e^(-2zt)).  The lead alone carries the zero at
0 and the pole at w, and integrates in closed form (Frullani):

    ln S2(z) = ln z - ln(w - z)
               + int_0^inf dt/(2t) [ lead (1 - D)/D - (2z - w) / (omega1 omega2 t) ].

The integrand decays at 2 min(Re z, w - Re z) + 2 min(omega1, omega2)
wherever z sits in the strip.  One t rule (_s2_t_rule) serves the complex
point (_log_s2_strip) and the real pair ln S2(u + id) + ln S2(u - id) in its
cosine form (_ln_s2_pair_smooth).  Everything here assumes real positive
periods; complex periods are rejected at construction.
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
from .quad import _complex, _exp_or_zero, _finite, _panels_on, _real

__all__ = [
    "Periods",
    "complex_gamma",
    "log_complex_gamma",
    "log_double_sine",
    "double_sine",
    "b22",
    "double_sine_asymptotic",
]

# ---------------------------------------------------------------------------
# Gamma via the Lanczos rational approximation, in log form (every Lanczos sum
# of the package is here).
#
# Coefficient set: g = 7, n = 9 (Godfrey's coefficients, the same set used by
# Boost.Math and the GNU Scientific Library documentation).  Relative error of
# the approximation grows with |Im z| to about 3e-13 (2.2e-13 at
# Gamma(0.3 + 300i) against 25-digit values); arguments with Re z < 0.5 go
# through the reflection formula, whose sin(pi z) is (-1)^n sin(pi (z - n)) at
# the integer n nearest Re z, accurate next to the poles.  One complex series
# (_lanczos_ln) serves arrays in numpy (_ln_gamma_vec) and one point in Python
# complex arithmetic (_ln_gamma_one, a few microseconds); callers sum its logs
# and exponentiate once.  _ln_abs_gamma_sq_real is the real-axis core.
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
_LANCZOS_C0 = float(_LANCZOS_C[0])
_LANCZOS_TERMS = tuple(enumerate(_LANCZOS_C.tolist()))[1:]  # (k, c_k), k >= 1
_LANCZOS_K = np.arange(8.0)  # k - 1 for the terms c_k / (z - 1 + k)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# points per block of _ln_abs_gamma_sq_real: its 8 x block terms (64 KiB) stay
# under glibc's 128 KiB mmap threshold, so they are not mapped afresh
_CORE_BLOCK = 1024

_POLE_TOL = 1e-12


def _lanczos_ln(zm1, log):
    """ln Gamma(zm1 + 1) for Re zm1 >= -1/2 by the Lanczos sum, with ``log``
    the complex log of zm1's kind: np.log on arrays, cmath.log at one point."""
    acc = _LANCZOS_C0
    for k, c in _LANCZOS_TERMS:
        acc = acc + c / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _HALF_LN_2PI + (zm1 + 0.5) * log(t) - t + log(acc)


def _ln_gamma_vec(z):
    """Vectorized ln Gamma(z), no domain checks (poles give inf/nan).

    Reflected below Re z = 0.5, where Im leaves the canonical branch: only
    exp(_ln_gamma_vec(z)) == Gamma(z) holds, up to rounding.  One point
    gives a Python complex.
    """
    if isinstance(z, (complex, float, int)) or np.ndim(z) == 0:
        return _ln_gamma_one(complex(z))
    z = np.asarray(z, dtype=complex)
    refl = z.real < 0.5
    ln = _lanczos_ln(np.where(refl, 1.0 - z, z) - 1.0, np.log)
    # ln sin(pi z) via |e^(2w)| = e^(-2 pi |Im z|); sin overflows past |Im z| ~ 226
    n = np.round(z.real)
    s = np.where(z.imag < 0.0, -1.0, 1.0)
    w = 1j * np.pi * s * (z - n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_sin = np.log(-np.expm1(w + w)) - w + np.log(0.5j * s) + 1j * np.pi * (n % 2.0)
    return np.where(refl, math.log(math.pi) - ln_sin - ln, ln)


def _ln_gamma_one(z: complex) -> complex:
    """_ln_gamma_vec at one point, in Python complex arithmetic."""
    refl = z.real < 0.5
    ln = _lanczos_ln((1.0 - z if refl else z) - 1.0, cmath.log)
    if not refl:
        return ln
    n = round(z.real)
    s = -1.0 if z.imag < 0.0 else 1.0
    w = 1j * math.pi * s * (z - n)
    a, b = 2.0 * w.real, 2.0 * w.imag  # numpy's complex expm1 of 2w, term by term
    em1 = complex(math.expm1(a) * math.cos(b) - 2.0 * math.sin(w.imag) ** 2, math.exp(a) * math.sin(b))
    ln_sin = (cmath.log(-em1) if em1 else -math.inf) - w + cmath.log(0.5j * s) + 1j * math.pi * (n % 2)
    return math.log(math.pi) - ln_sin - ln


def _ln_abs_gamma_sq_real(a: float, b) -> np.ndarray:
    """ln |Gamma(a + ib)|^2 for a fixed real a > 0 and real b.

    One point, 0-d or in an array, is 2 Re _ln_gamma_one(a + ib).  Arrays take
    Lanczos' rational form in real arithmetic, _CORE_BLOCK points at a time:
    with z - 1 = (a - 1) + ib the sum's real and imaginary parts come from
    c_k / ((a - 1 + k)^2 + b^2), and ln t^(z - 1/2) e^(-t), t = a + 6.5 + ib
    (6.5 = _LANCZOS_G - 1/2), from ln|t|^2 and arg t.  a < 1.5 is shifted by
    2 through |Gamma(z + 2)| = |z (z + 1)| |Gamma(z)|.
    """
    b = np.asarray(b, dtype=float)
    if b.size == 1:
        out = 2.0 * _ln_gamma_one(complex(a, b.item())).real
        return out if b.ndim == 0 else np.full(b.shape, out)
    z_sq = None
    if a < 1.5:
        # |z (z + 1)|^2 = b^4 + (a^2 + (a + 1)^2) b^2 + (a (a + 1))^2
        z_sq = (a * a + (a + 1.0) ** 2, (a * (a + 1.0)) ** 2)
        a += 2.0
    t_re = a + (_LANCZOS_G - 0.5)
    b2 = b * b
    s = a + _LANCZOS_K  # a - 1 + k
    rows = np.stack([s, np.ones_like(s)])
    flat = b2.ravel()
    acc = np.empty((2, flat.size))  # the sum is c_0 + acc[0] - ib acc[1]
    for i in range(0, flat.size, _CORE_BLOCK):
        inv = np.add.outer(s * s, flat[i : i + _CORE_BLOCK])
        np.divide(_LANCZOS_C[1:, None], inv, out=inv)
        acc[:, i : i + _CORE_BLOCK] = rows @ inv
    re, out = acc[0].reshape(b.shape), acc[1].reshape(b.shape)
    re += _LANCZOS_C0
    out *= out
    out *= b2
    out += np.multiply(re, re, out=re)
    if z_sq:
        np.multiply(np.add(b2, z_sq[0], out=re), b2, out=re)
        out /= np.add(re, z_sq[1], out=re)
    np.log(out, out=out)
    out += np.multiply(np.log(np.add(b2, t_re * t_re, out=re), out=re), a - 0.5, out=re)
    np.multiply(np.arctan2(b, t_re, out=re), b, out=re)
    out -= np.multiply(re, 2.0, out=re)
    out += 2.0 * _HALF_LN_2PI - 2.0 * t_re
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
    z = _complex(z, "complex_gamma")
    if _nearest_nonpositive_int(z) is not None:
        raise GammaPoleError(f"gamma pole at z = {z!r}")
    out = _exp_or_zero(_ln_gamma_one(z), "|Gamma({!r})| is not representable; request log_complex_gamma instead", z)
    return out if z.imag else complex(out.real)  # Im ln Gamma is 0 or pi on the real axis


def log_complex_gamma(z: complex) -> complex:
    """log Gamma(z) via the Lanczos sum in log form, at one point.

    The imaginary part is continuous on Re z >= 0.5 but is not glued to the
    canonical branch across the reflection; intended for magnitude-safe
    evaluation, exp(log_complex_gamma(z)) == Gamma(z) up to rounding.
    Raises GammaOverflowError where ln Gamma(z) leaves the double range.
    """
    z = _complex(z, "log_complex_gamma")
    if _nearest_nonpositive_int(z) is not None:
        raise GammaPoleError(f"gamma pole at z = {z!r}")
    return _finite(_ln_gamma_one(z), "ln Gamma({!r}) is not representable", z)


# ---------------------------------------------------------------------------
# Periods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Periods:
    """The pair of positive real quasi-periods of the double sine function."""

    omega1: float
    omega2: float

    def __post_init__(self):
        for name in ("omega1", "omega2"):
            v = _real(getattr(self, name), name, finite=True)
            if not v > 0:
                raise DomainError(f"{name} must be a positive real, got {v!r}")
            object.__setattr__(self, name, v)

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


def _s2_t_rule(u: float, freq: float, w1: float, w2: float):
    """Nodes t, weights, t_max and r = (1 - D)/D of the strip integral at
    Re z = u, oscillating up to freq; t_max follows the integrand's decay rate."""
    rate = 2.0 * min(u, w1 + w2 - u) + 2.0 * min(w1, w2)
    t_max = _TAIL_EXPONENT / rate
    # integrand poles at t = i pi k / omega limit the panel width
    width = min(8.0 / max(freq, rate, 1.0), t_max / 4.0, 1.6 * math.pi / max(w1, w2))
    t, wt = _panels_on(0.0, t_max, width)
    dt = np.expm1(-2.0 * w1 * t) * np.expm1(-2.0 * w2 * t)  # D(t)
    return t, wt, t_max, (1.0 - dt) / dt


def _log_s2_strip(z: complex, w1: float, w2: float) -> complex:
    """ln S2(z) by the t-integral; requires 0 < Re z < w1 + w2 strictly."""
    w = w1 + w2
    c = (2.0 * z - w) / (w1 * w2)
    t, wt, t_max, r = _s2_t_rule(z.real, 2.0 * abs(z.imag), w1, w2)
    lead = 2.0 * (np.exp(-2.0 * (w - z) * t) - np.exp(-2.0 * z * t))
    integrand = (lead * r - c / t) / (2.0 * t)
    # the last term is the analytic remainder of the counterterm beyond t_max
    return cmath.log(z) - cmath.log(w - z) + complex(np.dot(wt, integrand)) - c / (2.0 * t_max)


def _ln_s2_pair_smooth(u: float, mid: np.ndarray, off: np.ndarray, w1: float, w2: float):
    """ln S2(u+id) + ln S2(u-id) - ln((u^2+d^2)/((w-u)^2+d^2)) on d = mid + off >= 0.

    An outer sum: entry (i, j) is at d = mid[i] + off[j].  Summed over +-d,
    the strip integral's logs are the log taken out above and its lead is
    lead(u) cos(2dt), formed on its decaying side,
    -sign(b) 2 e^(-2mt) expm1(-2|b|t) with b = 2u - w and m = min(u, w-u),
    so it cannot overflow however far u sits from the strip's middle.  The
    integrand rest cos(2dt) - c0/t, rest = lead (1 - D)/D and
    c0 = b/(w1 w2), is split as (rest - c0/t) - 2 rest sin^2(dt): the 1/t
    parts cancel in the first term, which is free of d, and the second is
    finite at t = 0.  With A = mid t and B = off t, sin^2(A + B) =
    sin^2 A cos^2 B + cos^2 A sin^2 B + sin 2A sin B cos B is three
    (mid, t) @ (t, off) products, so sines and cosines are taken per mid and
    per off, not per (d, t) pair.  At the single offset 0 (the measure's d
    on one axis) it is sin^2 A alone, one (mid, t) @ (t,) product.
    """
    w = w1 + w2
    b = 2.0 * u - w
    c0 = b / (w1 * w2)
    m = min(u, w - u)
    freq = 2.0 * (float(mid.max(initial=0.0)) + float(off.max(initial=0.0)))
    t, wt, t_max, r = _s2_t_rule(u, freq, w1, w2)
    lead = -math.copysign(2.0, b) * np.exp(-2.0 * m * t) * np.expm1(-2.0 * abs(b) * t)
    rest = lead * r
    wt = wt / t
    v = 2.0 * rest * wt
    smooth = (rest - c0 / t) @ wt - c0 / t_max
    sa2 = np.sin(np.outer(mid, t)) ** 2
    if off.size == 1 and not off[0]:
        return (smooth - sa2 @ v)[:, None]
    sb, cb = np.sin(np.outer(off, t)), np.cos(np.outer(off, t))
    lhs = np.hstack([sa2 * v, (1.0 - sa2) * v, np.sin(np.outer(mid, 2.0 * t)) * v])
    return smooth - lhs @ np.hstack([cb * cb, sb * sb, sb * cb]).T


def _re_ln_s2_pair(u: float, d: np.ndarray, w1: float, w2: float, smooth=None) -> np.ndarray:
    """ln S2(u+id) + ln S2(u-id) for real d (vectorized), 0 < u < w1+w2.

    |d| up to the asymptotic switch point is the log of S2's zero and pole
    plus the smooth part, smooth(|d|) when given (a proxy of it) and else
    _ln_s2_pair_smooth's t-integral.  Beyond it the pair is the exact B22
    limit -pi |d| (2u-w)/(w1 w2).
    """
    d = np.abs(np.asarray(d, dtype=float))
    w = w1 + w2
    out = np.empty_like(d)
    far = d > _ASYM_FACTOR * max(w1, w2)
    out[far] = -math.pi * d[far] * (2.0 * u - w) / (w1 * w2)
    near = ~far
    if near.any():
        dn = d[near]
        d2 = dn * dn
        part = smooth(dn) if smooth else _ln_s2_pair_smooth(u, dn, np.zeros(1), w1, w2)[:, 0]
        out[near] = part + np.log((u * u + d2) / ((w - u) ** 2 + d2))
    return out


def log_double_sine(z: complex, p: Periods) -> complex:
    """ln S2(z | omega) for Re z strictly inside (0, omega1 + omega2).

    Raises StripError outside the strip; callers must shift with the
    functional equations first (double_sine does this automatically).  Past
    |Im z| = _ASYM_FACTOR omega_max it is the log of double_sine's asymptote.
    """
    z = _complex(z, "log_double_sine")
    if not 0.0 < z.real < p.total:
        raise StripError(
            f"Re z = {z.real!r} outside the analytic strip (0, {p.total!r})"
        )
    if abs(z.imag) > _ASYM_FACTOR * p.omax:  # where the t rule's panels would grow without bound
        return _ln_s2_asymptotic(z, p)
    # homogeneity S2(gz | g*omega) = S2(z | omega): normalize the small period
    # to 1 so the truncation length is well conditioned for extreme periods
    s = 1.0 / p.omin
    return _log_s2_strip(z * s, p.omega1 * s, p.omega2 * s)


# ---------------------------------------------------------------------------
# Full-plane double sine
# ---------------------------------------------------------------------------


def b22(z: complex, p: Periods) -> complex:
    """The quadratic polynomial governing the large-|Im z| behavior of S2.

    Raises GammaOverflowError where it leaves the double range.
    """
    z = _complex(z, "b22")
    ww = p.product
    w = p.total
    out = (z * z - w * z) / ww + (p.omega1**2 + 3.0 * ww + p.omega2**2) / (6.0 * ww)
    return _finite(out, "b22 overflowed at z = {!r}", z)


def _ln_s2_asymptotic(z: complex, p: Periods) -> complex:
    """sign(Im z) * i pi B22(z)/2, the log of double_sine_asymptotic (Im z != 0)."""
    return (0.5j if z.imag > 0 else -0.5j) * math.pi * b22(z, p)


def double_sine_asymptotic(z: complex, p: Periods) -> complex:
    """Leading large-argument form exp(sign(Im z) * i pi B22(z)/2).

    Valid off the real axis; raises DomainError at Im z == 0 where the sign
    is undefined, and GammaOverflowError where the value or its phase
    exceeds the double range.
    """
    z = _complex(z, "double_sine_asymptotic")
    if z.imag == 0.0:
        raise DomainError("asymptotic form undefined on the real axis (Im z = 0)")
    try:
        return cmath.exp(_ln_s2_asymptotic(z, p))
    except (OverflowError, ValueError):  # cmath.exp raises ValueError on an infinite phase
        raise GammaOverflowError(f"double_sine overflowed at z = {z!r}") from None


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
    the functional equations, shifting by the larger period; a finite value
    reached in more than 64 shift steps comes with an ill-conditioning
    warning.  A non-finite z, or |Re z| beyond 2^20 steps below the
    asymptotic region, is refused with DomainError.
    """
    z = _complex(z, "double_sine")
    if abs(z.imag) > _ASYM_FACTOR * p.omax:
        return double_sine_asymptotic(z, p)
    if abs(z.real) > _MAX_SHIFT_STEPS * p.omax:
        raise DomainError(f"double_sine refuses Re z = {z.real!r}: too many shift steps")
    zero = _lattice_index(z, p, "zero")
    if zero is not None:
        return 0.0 + 0.0j
    pole = _lattice_index(z, p, "pole")
    if pole is not None:
        raise LatticePoleError(*pole)

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
    try:
        out = cmath.exp(log_factor + _log_s2_strip(zn, p.omega1 * s, p.omega2 * s))
    except OverflowError:
        out = math.inf
    _finite(out, "double_sine overflowed at z = {!r}", z)
    if steps > 64:
        warnings.warn(
            f"double_sine used {steps} functional-equation steps; "
            "result may be ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    return out
