"""Independent reference routes used to freeze expected values.

Everything here deliberately avoids the package's main evaluation paths:
gamma comes from upward recursion plus the Stirling series, the double sine
logarithm from a plain high-node trapezoid with a Richardson consistency
check, and integrals from the fixed-grid trapezoid oracles.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

# Bernoulli numbers B_2..B_16 over the Stirling denominators 2k(2k-1)
_STIRLING = [
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
]


def gamma_oracle(z: complex) -> complex:
    """Gamma by recursion to |z| ~ 30 plus the Stirling asymptotic series."""
    z = complex(z)
    shift = 0
    while z.real < 30.0:
        z += 1.0
        shift += 1
    ln = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    zp = z
    for k, coef in enumerate(_STIRLING):
        ln += coef / zp
        zp *= z * z
    val = cmath.exp(ln)
    for k in range(shift):
        val /= z - 1.0 - k
    return val


def log_double_sine_oracle(z: complex, w1: float, w2: float) -> complex:
    """Trapezoid of the subtracted integrand on [delta, T], Richardson-checked.

    Below delta the two integrand terms cancel catastrophically in floats, so
    the head [0, delta] is added by Simpson with the analytic t -> 0 value.
    Raises if doubling the node count moves the answer by more than 5e-10.
    """
    w = w1 + w2
    a = 2.0 * z - w
    c = a / (w1 * w2)
    gap = min(z.real, w - z.real)
    t_hi = 42.0 / (2.0 * gap)
    delta = 1e-4

    def integrand(t):
        return (np.sinh(a * t) / (np.sinh(w1 * t) * np.sinh(w2 * t)) - c / t) / (
            2.0 * t
        )

    head0 = a * (a * a - w1 * w1 - w2 * w2) / (12.0 * w1 * w2)
    head = delta / 6.0 * (
        head0 + 4.0 * complex(integrand(np.array([0.5 * delta]))[0])
        + complex(integrand(np.array([delta]))[0])
    )
    vals = []
    for n in (400_001, 800_001):
        t = np.linspace(delta, t_hi, n)
        y = integrand(t)
        h = (t_hi - delta) / (n - 1)
        v = head + h * (np.sum(y) - 0.5 * (y[0] + y[-1])) - c / (2.0 * t_hi)
        vals.append(complex(v))
    if abs(vals[1] - vals[0]) > 5e-10:
        raise AssertionError(f"trapezoid not converged: {vals}")
    return vals[1]


def trapezoid_oracle(f, L: float, n: int) -> complex:
    """Plain trapezoid on [-L, L]; independent twin of quad.oracle_trapezoid."""
    x = np.linspace(-L, L, n)
    y = np.asarray(f(x), dtype=complex)
    h = 2.0 * L / (n - 1)
    return complex(h * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def richardson_pair(f, L: float, n: int) -> tuple[complex, float]:
    """Value at n nodes plus the shift when halving the step."""
    v1 = trapezoid_oracle(f, L, n)
    v2 = trapezoid_oracle(f, L, 2 * n - 1)
    return v2, abs(v2 - v1)


def ln_s2_pair_smooth_oracle(u: float, d: np.ndarray, w1: float, w2: float) -> np.ndarray:
    """The t-integral left in ln S2(u+id) + ln S2(u-id) once S2's zero and pole
    are taken out, formed pair by pair on a t grid twice as fine.

    The same t range and integrand as special._ln_s2_pair_smooth, summed
    directly as (rest cos(2dt) - c0/t) / t on every (d, t) pair, with
    16-point Gauss-Legendre panels half as wide as the package's.  The sum
    runs in extended precision: its two 1/t parts cancel at small t, which
    in float64 leaves rounding errors of a few 1e-13, as large as the
    proxy's own error.
    """
    ld = np.longdouble
    d = np.asarray(d, dtype=ld)
    u, w1, w2 = ld(u), ld(w1), ld(w2)
    w = w1 + w2
    b = 2 * u - w
    c0 = b / (w1 * w2)
    m = min(u, w - u)
    rate = 2 * m + 2 * min(w1, w2)
    t_max = 39.2 / rate
    freq = 2.0 * float(d.max(initial=0.0))
    width = 0.5 * min(8.0 / max(freq, rate, 1.0), t_max / 4.0, 1.6 * math.pi / max(w1, w2))
    n = int(math.ceil(t_max / width))
    x, wx = np.polynomial.legendre.leggauss(16)
    half = t_max / (2 * n)
    t = (half * (2 * np.arange(n, dtype=ld) + 1)[:, None] + half * x[None, :]).ravel()
    wt = np.tile(half * wx.astype(ld), n)
    dt = np.expm1(-2 * w1 * t) * np.expm1(-2 * w2 * t)
    lead = -math.copysign(2.0, b) * np.exp(-2 * m * t) * np.expm1(-2 * abs(b) * t)
    rest = lead * ((1 - dt) / dt)
    integrand = rest * np.cos(np.outer(d, 2 * t)) - c0 / t
    return (integrand @ (wt / t) - c0 / t_max).astype(float)
