"""Two-particle wave functions in both dual integral representations.

The position-side ("hr") form builds the wave function by one coordinate
integral of two kernel factors against a plane wave; the spectral-side ("mb")
form is the dual one-fold integral over a spectral variable.  Their equality
is the central identity the test suite verifies.  For real arguments both
routes reduce to a single shared separation profile,

    Psi(x1, x2) = e^(i kappa (l1+l2)(x1+x2)/2) * phi(x1 - x2),

with phi given by operators.pair_transform; complex spectral continuations
fall back to the direct integrals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContinuationError, DomainError, KernelPoleError
from .kernels import (
    Coupling,
    KernelFamily,
    _hatK_vec,
    exponent_scale,
    measure_hyperbolic,
)
from .special import _nearest_nonpositive_int, complex_gamma
from .operators import (
    FunctionHandle,
    factored_pair_handle,
    pair_transform,
    pair_transform_rate,
)
from .quad import QuadSpec, _adaptive, _tail
from .special import double_sine

__all__ = [
    "SpectralPoint",
    "PositionPoint",
    "psi_hr",
    "psi_mb",
    "psi_factored",
    "psi_asymptotic",
    "schrodinger_residual",
    "momentum_residual",
    "dual_difference_residual",
    "DualResiduals",
    "sutherland_gauge",
    "eigenfunction_handle",
]


@dataclass(frozen=True)
class SpectralPoint:
    lambda1: complex
    lambda2: complex

    def __post_init__(self):
        object.__setattr__(self, "lambda1", complex(self.lambda1))
        object.__setattr__(self, "lambda2", complex(self.lambda2))

    @property
    def plus(self) -> complex:
        return 0.5 * (self.lambda1 + self.lambda2)

    @property
    def delta(self) -> complex:
        return self.lambda1 - self.lambda2

    @property
    def is_real(self) -> bool:
        return self.lambda1.imag == 0.0 and self.lambda2.imag == 0.0


@dataclass(frozen=True)
class PositionPoint:
    x1: float
    x2: float

    def __post_init__(self):
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "x2", float(self.x2))

    @property
    def xsum(self) -> float:
        return self.x1 + self.x2

    @property
    def delta(self) -> float:
        return self.x1 - self.x2


def _check_family_pair(family: KernelFamily, c: Coupling) -> KernelFamily:
    family = KernelFamily(family)
    if family is KernelFamily.RELATIVISTIC:
        c.require_periods()
    return family


# ---------------------------------------------------------------------------
# the two representations
# ---------------------------------------------------------------------------


def psi_hr(
    sp: SpectralPoint,
    pp: PositionPoint,
    c: Coupling,
    family: KernelFamily = KernelFamily.HYPERBOLIC,
    q: QuadSpec = QuadSpec(),
) -> complex:
    """Position-side one-fold integral representation of the wave function.

    hyperbolic:    int dt e^(i l2 (x1+x2-t)) K(x1-t) K(x2-t) e^(i l1 t)
    relativistic:  same with Kg kernels and the 2 pi/(omega1 omega2) scale.
    """
    family = _check_family_pair(family, c)
    if family is KernelFamily.GAMMA:
        family = KernelFamily.HYPERBOLIC
    kap = exponent_scale(family, c)
    if sp.is_real:
        prof = pair_transform(family, c, sp.delta, pp.delta, q)
        return complex(np.exp(1j * kap * sp.plus * pp.xsum) * prof)
    return _psi_position_direct(sp, pp, c, family, q)


def _psi_position_direct(sp, pp, c, family, q) -> complex:
    from .operators import _Ops  # local import: shared kernel closures

    ops = _Ops(family, family is KernelFamily.RELATIVISTIC, c)
    kap = ops.kappa
    l1, l2 = sp.lambda1, sp.lambda2
    d_im = kap * (l1 - l2).imag
    rate_pos = 2.0 * ops.k_rate + d_im
    rate_neg = 2.0 * ops.k_rate - d_im
    if min(rate_pos, rate_neg) <= 0:
        raise DomainError("Im(lambda1 - lambda2) outside the kernel-decay strip")
    lo = min(pp.x1, pp.x2) - _tail(q) / rate_neg
    hi = max(pp.x1, pp.x2) + _tail(q) / rate_pos
    freq = kap * abs((l1 - l2).real)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return (
            np.exp(1j * kap * (l2 * (pp.xsum - t) + l1 * t))
            * ops.kernel(pp.x1 - t)
            * ops.kernel(pp.x2 - t)
        )

    return _adaptive(integrand, lo, hi, q, freq)


def psi_mb(
    sp: SpectralPoint,
    pp: PositionPoint,
    c: Coupling,
    family: KernelFamily = KernelFamily.GAMMA,
    q: QuadSpec = QuadSpec(),
) -> complex:
    """Spectral-side one-fold integral representation (the dual route).

    gamma:         int dg/(2 pi) e^(i x2 (l1+l2-g)) Khat(l1-g) Khat(l2-g) e^(i x1 g)
    relativistic:  S2(g*)^2 int dg e^(i kappa x1 (l1+l2-g)) Kg*(l1-g) Kg*(l2-g)
                   e^(i kappa x2 g)

    The spectral contour stays on the real axis; complex lambda continuations
    are evaluated directly and must keep the kernel poles off the contour.
    """
    family = _check_family_pair(family, c)
    if family is KernelFamily.HYPERBOLIC:
        family = KernelFamily.GAMMA
    if family is KernelFamily.GAMMA:
        if sp.is_real:
            prof = pair_transform(KernelFamily.GAMMA, c, pp.delta, sp.delta.real, q)
            return complex(np.exp(1j * sp.plus * pp.xsum) * prof)
        return _psi_spectral_direct_gamma(sp, pp, c, q)
    kap = exponent_scale(family, c)
    if not sp.is_real:
        raise ContinuationError("relativistic spectral-side form is real-argument only")
    s2g = double_sine(c.gstar(), c.require_periods())
    prof = pair_transform(KernelFamily.RELATIVISTIC, c.dual(), pp.x2 - pp.x1, sp.delta.real, q)
    return complex(s2g * s2g * np.exp(1j * kap * sp.plus * pp.xsum) * prof)


def _mb_pole_clearance(sp: SpectralPoint, c: Coupling) -> float:
    """Signed clearance of the integrand gamma poles from the real contour.

    The nearest poles sit at Im gamma = Im lambda_j -+ g; once |Im lambda_j|
    reaches g one of them has crossed the real axis (negative clearance), and
    the real-contour integral is no longer the analytic continuation.
    """
    return min(c.g - abs(lam.imag) for lam in (sp.lambda1, sp.lambda2))


def _psi_spectral_direct_gamma(sp, pp, c, q) -> complex:
    if _mb_pole_clearance(sp, c) < 1e-9:
        raise ContinuationError(
            "gamma poles on the real spectral contour; continuation refused"
        )
    l1, l2 = sp.lambda1, sp.lambda2
    rate = math.pi  # two Khat factors at rate pi/2 each; e^(i g (x1-x2)) is unimodular
    lo = min(l1.real, l2.real) - _tail(q) / rate
    hi = max(l1.real, l2.real) + _tail(q) / rate
    freq = abs(pp.delta)
    pref = 1.0 / (2.0 * math.pi)

    def integrand(g):
        g = np.asarray(g, dtype=float)
        return (
            pref
            * _hatK_vec(l1 - g, c.g)
            * _hatK_vec(l2 - g, c.g)
            * np.exp(1j * (pp.x2 * (l1 + l2 - g) + pp.x1 * g))
        )

    return _adaptive(integrand, lo, hi, q, freq)


def psi_factored(
    lam: float,
    x: float,
    c: Coupling,
    q: QuadSpec = QuadSpec(),
    sutherland: bool = False,
) -> complex:
    """Separated one-dimensional profile psi_lam(x), even in both arguments.

    Psi(x1,x2) = e^(i(l1+l2)(x1+x2)/2) psi_((l1-l2)/2)(x1-x2); with
    ``sutherland`` the profile is multiplied by sinh^g|x|.
    """
    out = complex(pair_transform(KernelFamily.HYPERBOLIC, c, 2.0 * lam, x, q))
    if sutherland:
        out *= measure_hyperbolic(x, Coupling(0.5 * c.g))
    return out


def sutherland_gauge(
    sp: SpectralPoint,
    pp: PositionPoint,
    c: Coupling,
    q: QuadSpec = QuadSpec(),
) -> complex:
    """sinh^g|x1-x2| times the position-side wave function."""
    return complex(measure_hyperbolic(pp.delta, Coupling(c.g / 2.0)) * psi_hr(sp, pp, c, q=q))


# ---------------------------------------------------------------------------
# asymptotics and equation residuals
# ---------------------------------------------------------------------------


def psi_asymptotic(sp: SpectralPoint, pp: PositionPoint, c: Coupling) -> complex:
    """Two-plane-wave leading term of the wave function for large x2 - x1."""
    if not sp.is_real:
        raise DomainError("asymptotic form is stated for real spectral values")
    l1, l2 = sp.lambda1.real, sp.lambda2.real
    if l1 == l2:
        raise KernelPoleError("coincident spectral values hit a gamma pole")
    g = c.g
    d = 0.5j * (l2 - l1)
    if _nearest_nonpositive_int(d) is not None or _nearest_nonpositive_int(-d) is not None:
        raise KernelPoleError("spectral separation hits a gamma pole")
    pref = 2.0 ** (2.0 * g - 1.0) / complex_gamma(g) * math.exp(-g * (pp.x2 - pp.x1))
    term1 = (
        complex_gamma(d)
        * complex_gamma(-d + g)
        * np.exp(1j * (l1 * pp.x1 + l2 * pp.x2))
    )
    term2 = (
        complex_gamma(-d)
        * complex_gamma(d + g)
        * np.exp(1j * (l2 * pp.x1 + l1 * pp.x2))
    )
    return complex(pref * (term1 + term2))


_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # f'(x) h^-1, 4th order
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # f''(x) h^-2, 4th order
_OFFS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _stencil_values(sp, pp, c, q, axis: int, h: float) -> np.ndarray:
    vals = []
    for o in _OFFS:
        x1 = pp.x1 + (o * h if axis == 0 else 0.0)
        x2 = pp.x2 + (o * h if axis == 1 else 0.0)
        vals.append(psi_hr(sp, PositionPoint(x1, x2), c, q=q))
    return np.array(vals)


def schrodinger_residual(
    sp: SpectralPoint,
    pp: PositionPoint,
    c: Coupling,
    h: float = 1e-2,
    q: QuadSpec = QuadSpec(),
) -> float:
    """|H Psi - (l1^2 + l2^2) Psi| with 4th-order central finite differences.

    H = -d1^2 - d2^2 - 2 g coth(x1-x2) (d1 - d2) - 2 g^2, so coincident
    coordinates are rejected.
    """
    if pp.x1 == pp.x2:
        raise DomainError("coth singularity at x1 == x2")
    if not sp.is_real:
        raise DomainError("residual check is stated for real spectral values")
    v1 = _stencil_values(sp, pp, c, q, 0, h)
    v2 = _stencil_values(sp, pp, c, q, 1, h)
    psi0 = v1[2]
    d1 = np.dot(_D1, v1) / h
    d2 = np.dot(_D1, v2) / h
    dd1 = np.dot(_D2, v1) / (h * h)
    dd2 = np.dot(_D2, v2) / (h * h)
    g = c.g
    coth = 1.0 / math.tanh(pp.x1 - pp.x2)
    h_psi = -dd1 - dd2 - 2.0 * g * coth * (d1 - d2) - 2.0 * g * g * psi0
    target = (sp.lambda1.real**2 + sp.lambda2.real**2) * psi0
    return abs(h_psi - target)


def momentum_residual(
    sp: SpectralPoint,
    pp: PositionPoint,
    c: Coupling,
    h: float = 1e-2,
    q: QuadSpec = QuadSpec(),
) -> float:
    """|P Psi - (l1 + l2) Psi| with P = -i(d1 + d2), 4th-order differences."""
    if not sp.is_real:
        raise DomainError("residual check is stated for real spectral values")
    v1 = _stencil_values(sp, pp, c, q, 0, h)
    v2 = _stencil_values(sp, pp, c, q, 1, h)
    p_psi = -1j * (np.dot(_D1, v1) + np.dot(_D1, v2)) / h
    return abs(p_psi - (sp.lambda1.real + sp.lambda2.real) * v1[2])


class DualResiduals(NamedTuple):
    momentum: float
    hamiltonian: float


def dual_difference_residual(
    sp: SpectralPoint,
    pp: PositionPoint,
    c: Coupling,
    q: QuadSpec = QuadSpec(),
) -> DualResiduals:
    """Residuals of the dual difference equations acting on spectral variables.

    The full shift operator sends (l1, l2) -> (l1 - 2i, l2 - 2i) with
    eigenvalue e^(2 x1 + 2 x2); the two-term difference operator with rational
    coefficients has eigenvalue e^(2 x1) + e^(2 x2).  Both are evaluated by
    the spectral-side integral at complex-shifted arguments, keeping the
    contour on the real axis; this requires g > 2 so no kernel pole crosses
    the contour (a conservative, documented bound).
    """
    if not c.g > 2.0:
        raise ContinuationError(
            "spectral shift by -2i needs g > 2 for a pole-free real contour"
        )
    if sp.lambda1 == sp.lambda2:
        raise KernelPoleError("coefficient denominators vanish at l1 == l2")
    l1, l2 = sp.lambda1, sp.lambda2
    shift = -2j

    def phi(a, b) -> complex:
        return psi_mb(SpectralPoint(a, b), pp, c, KernelFamily.GAMMA, q)

    base = phi(l1, l2)
    p_val = phi(l1 + shift, l2 + shift)
    p_res = abs(p_val - math.exp(2.0 * pp.xsum) * base)
    c1 = (l1 - l2 + 2j * (c.g - 1.0)) / (l2 - l1)
    c2 = (l2 - l1 + 2j * (c.g - 1.0)) / (l1 - l2)
    h_val = c1 * phi(l1 + shift, l2) + c2 * phi(l1, l2 + shift)
    h_res = abs(h_val - (math.exp(2.0 * pp.x1) + math.exp(2.0 * pp.x2)) * base)
    return DualResiduals(momentum=float(p_res), hamiltonian=float(h_res))


# ---------------------------------------------------------------------------
# eigenfunction handles for the operator layer
# ---------------------------------------------------------------------------


def eigenfunction_handle(
    sp: SpectralPoint,
    c: Coupling,
    family: KernelFamily = KernelFamily.HYPERBOLIC,
    q: QuadSpec = QuadSpec(),
    dual: bool = False,
) -> FunctionHandle:
    """Factored-pair handle for the two-variable eigenfunction of the family.

    ``dual`` selects which relativistic operator the function diagonalizes:
    False gives the eigenfunction of the position-side operator (dual-coupling
    kernels), True the spectral-side one (plain-coupling kernels).  For the
    gamma family the handle variables are spectral and ``sp`` holds the two
    position labels.
    """
    family = KernelFamily(family)
    if family is KernelFamily.RELATIVISTIC:
        kernel_c = c.dual() if not dual else c
    else:
        kernel_c = c
    delta = sp.delta
    rate = pair_transform_rate(family, kernel_c, delta)
    kap = exponent_scale(family, kernel_c)

    def profile(v):
        return pair_transform(family, kernel_c, delta, v, q)

    return factored_pair_handle(
        family,
        kernel_c,
        sp.plus,
        profile,
        rate,
        profile_freq=0.5 * kap * abs(delta.real),
    )
