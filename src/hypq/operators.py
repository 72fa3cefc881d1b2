"""Pointwise application of the one- and two-variable integral operators.

Each family's one-variable operator acts on a test function f as

    [Q f](x) = c0 * int dy  e^(i kappa lambda (x - y)) Kf(x - y) f(y)

with Kf the family kernel, kappa the plane-wave scale (1, 1, 2 pi/(omega1
omega2)) and c0 = 1/(2 pi) for the gamma family.  The two-variable operators
add the family measure on the integration variables and a second kernel
factor per evaluation point; raising operators map one-variable functions to
two-variable ones through a single integral.

Operators evaluate pointwise against caller-supplied function handles; no
discretized operator matrices are built.  The envelope of the composed
integrand is computed mechanically from kernel decay, measure growth and the
handle's declared envelope, and integration is refused (DivergenceError) when
the combined rate is nonpositive.  Plane waves and factored two-variable
eigenfunctions are special-cased: symmetric factored inputs route the
two-variable integrals through center-of-mass/separation coordinates, where
the measure and the factored profile depend on the separation only.  The
inner integrals of an iterated two-variable integral are advanced together,
one batch per array of outer abscissae.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError
from .kernels import (
    Coupling,
    KernelFamily,
    eigenvalue,
    exponent_scale,
    kernel_decay_rate,
    _hatK_real_vec,
    hatK_ln_evaluator,
    kernel_hatK,
    kernel_K,
    kernel_K_complex,
    kernel_Kg,
    kernel_pole_distance,
    kg_ln_evaluator,
    kg_real_evaluator,
    ln_cosh,
    ln_measure_gamma,
    ln_measure_hyperbolic,
    ln_measure_relativistic,
    measure_gamma,
    measure_growth_rate,
    measure_hyperbolic,
    measure_relativistic,
)
from .quad import _GL16_NODES, QuadSpec, _adaptive, _adaptive_many, _panels_on, _tail

__all__ = [
    "OperatorSpec",
    "Envelope",
    "FunctionHandle",
    "plane_wave",
    "factored_pair_handle",
    "apply_Q",
    "apply_Lambda",
    "qq_convolution_kernel",
    "qlambda_exchange_check",
    "pair_transform",
    "pair_transform_rate",
]


# about this many kernel values per block of a vectorized pair_transform
_PAIR_BLOCK = 1 << 18


@dataclass(frozen=True)
class Envelope:
    """Signed exponential envelope of a handle: |f(t)| <~ e^(-rate_pos t) as
    t -> +inf and <~ e^(+rate_neg t) as t -> -inf.  Negative rates declare
    growth; operators check the combined rates before integrating."""

    rate_pos: float = 0.0
    rate_neg: float = 0.0
    center: float = 0.0
    freq: float = 0.0


@dataclass(frozen=True)
class FunctionHandle:
    """A callable plus its declared envelope (which must dominate the truth)."""

    fn: Callable
    envelope: Envelope = Envelope()
    kind: str = "generic"
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OperatorSpec:
    """Which operator: family, arity (1 or 2), dual or not, coupling, spectral.

    Relativistic non-dual operators carry the dual-coupling kernel and
    measure; relativistic dual ones carry the plain-coupling pair.  The gamma
    family is the dual side of the hyperbolic one and its operators divide by
    2 pi per integration variable.
    """

    family: KernelFamily
    arity: int
    dual: bool
    coupling: Coupling
    spectral: complex

    def __post_init__(self):
        object.__setattr__(self, "family", KernelFamily(self.family))
        object.__setattr__(self, "spectral", complex(self.spectral))
        if self.arity not in (1, 2):
            raise DomainError("arity must be 1 or 2")
        if self.family is KernelFamily.HYPERBOLIC and self.dual:
            raise DomainError("the dual of the hyperbolic family is the gamma family")
        if self.family is KernelFamily.GAMMA and not self.dual:
            raise DomainError("gamma-family operators are the dual side; set dual=True")
        if self.family is KernelFamily.RELATIVISTIC:
            self.coupling.require_periods()


# ---------------------------------------------------------------------------
# family plumbing
# ---------------------------------------------------------------------------


class _Ops:
    """Vectorized kernel/measure closures for one operator family instance."""

    def __init__(self, family: KernelFamily, dual: bool, c: Coupling):
        family = KernelFamily(family)
        self.family = family
        self.kappa = exponent_scale(family, c)
        if family is KernelFamily.HYPERBOLIC:
            kc = c
            self.kernel = lambda x: kernel_K(np.asarray(x, dtype=float), kc)
            self.ln_kernel = lambda x: -kc.g * ln_cosh(x)
            self.measure = lambda v: measure_hyperbolic(np.asarray(v, dtype=float), kc)
            self.ln_measure = lambda v: ln_measure_hyperbolic(v, kc)
            self.two_pi_inv = 1.0
        elif family is KernelFamily.GAMMA:
            kc = c
            self.kernel = lambda x: _hatK_real_vec(np.asarray(x, dtype=float), kc.g)
            self.ln_kernel = hatK_ln_evaluator(kc.g)
            self.measure = lambda v: measure_gamma(np.asarray(v, dtype=float), kc)
            self.ln_measure = lambda v: ln_measure_gamma(v, kc)
            self.two_pi_inv = 1.0 / (2.0 * math.pi)
        else:
            kc = c if dual else c.dual()
            self.kernel = kg_real_evaluator(kc)
            self.ln_kernel = kg_ln_evaluator(kc)
            self.measure = lambda v: measure_relativistic(np.asarray(v, dtype=float), kc)
            self.ln_measure = lambda v: ln_measure_relativistic(v, kc)
            self.two_pi_inv = 1.0
        self.kernel_coupling = kc
        self.k_rate = kernel_decay_rate(family, kc)
        self.mu_rate = measure_growth_rate(family, kc)

    def kernel_complex(self, z: complex) -> complex:
        if self.family is KernelFamily.HYPERBOLIC:
            return kernel_K_complex(z, self.kernel_coupling)
        if self.family is KernelFamily.GAMMA:
            return kernel_hatK(z, self.kernel_coupling)
        return kernel_Kg(z, self.kernel_coupling)

    def eigen(self, spectral: complex, label: complex) -> complex:
        if self.family is KernelFamily.RELATIVISTIC:
            # the operator with kernel coupling kc has eigenvalue built from
            # the opposite coupling: sqrt(w1 w2) S2(kc*) K_{kc*}
            return eigenvalue(self.family, spectral, label, self.kernel_coupling.dual())
        return eigenvalue(self.family, spectral, label, self.kernel_coupling)


def plane_wave(label: complex, family: KernelFamily, c: Coupling) -> FunctionHandle:
    """e^(i kappa label t) with exact envelope bookkeeping."""
    kappa = exponent_scale(family, c)
    label = complex(label)

    def fn(t):
        return np.exp(1j * kappa * label * np.asarray(t, dtype=float))

    env = Envelope(
        rate_pos=kappa * label.imag,
        rate_neg=-kappa * label.imag,
        center=0.0,
        freq=kappa * abs(label.real),
    )
    return FunctionHandle(fn, env, kind="plane_wave", meta={"label": label})


def factored_pair_handle(
    family: KernelFamily,
    c: Coupling,
    label_plus: complex,
    profile: Callable,
    profile_rate: float,
    profile_freq: float = 0.0,
) -> FunctionHandle:
    """Symmetric two-variable handle e^(i kappa label_plus (y1+y2)) * profile(y1-y2).

    ``profile`` must be vectorized and even; ``profile_rate`` its envelope
    exponent in |y1 - y2|.
    """
    kappa = exponent_scale(family, c)
    label_plus = complex(label_plus)

    def fn(y1, y2):
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        return np.exp(1j * kappa * label_plus * (y1 + y2)) * profile(y1 - y2)

    env = Envelope(
        rate_pos=kappa * label_plus.imag,
        rate_neg=-kappa * label_plus.imag,
        center=0.0,
        freq=kappa * abs(label_plus.real) + profile_freq,
    )
    return FunctionHandle(
        fn,
        env,
        kind="factored_pair",
        meta={
            "label_plus": label_plus,
            "profile": profile,
            "profile_rate": float(profile_rate),
            "profile_freq": float(profile_freq),
        },
    )


# ---------------------------------------------------------------------------
# fixed composite panels (deterministic vectorized building block)
# ---------------------------------------------------------------------------


def _require_positive(*rates: float) -> None:
    if min(rates) <= 0.0:
        raise DivergenceError(
            f"combined integrand envelope has nonpositive decay rate {min(rates):.3g}"
        )


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------


def _apply_q1(spec: OperatorSpec, f: FunctionHandle, x0: float, q: QuadSpec) -> complex:
    ops = _Ops(spec.family, spec.dual, spec.coupling)
    lam = spec.spectral
    kap = ops.kappa
    env = f.envelope
    # |e^(i kap lam (x0 - y))| = e^(kap Im(lam) y) up to a constant
    rate_pos = ops.k_rate + env.rate_pos - kap * lam.imag
    rate_neg = ops.k_rate + env.rate_neg + kap * lam.imag
    _require_positive(rate_pos, rate_neg)
    lo = min(x0, env.center) - _tail(q) / rate_neg
    hi = max(x0, env.center) + _tail(q) / rate_pos
    freq = kap * abs(lam.real) + env.freq

    phase = 1j * kap * lam

    def integrand(y):
        y = np.asarray(y, dtype=float)
        return ops.two_pi_inv * np.exp(phase * (x0 - y)) * ops.kernel(x0 - y) * f.fn(y)

    cap = 1.6 * kernel_pole_distance(spec.family, ops.kernel_coupling)
    return _adaptive(integrand, lo, hi, q, freq, cap)


def _rotated_inner(ops, xs, zs, labels, v, window, spec, freq, cap) -> np.ndarray:
    """Inner integrals of a two-variable operator in rotated coordinates.

    With u = y1 + y2 and, for each outer abscissa, v = y1 - y2 fixed, this is

        int du exp(mu v + i kappa (a (sum xs - u) + b (u - sum zs))
                   + sum ln K(x - y_j) + sum ln K(y_j - z))

    for (a, b) = labels, x in xs, z in zs and mu the measure growth rate,
    which the caller takes out again: compensating it here keeps the outer
    integrand finite on slowly decaying (regularized) tails.  window =
    (l_neg, l_pos, s_mid, tail) cuts u to [-v + 2 min - l_neg, v + 2 max +
    l_pos] over the kernel centers; a signed plane-factor rate s_mid between
    the bumps at u ~ -v and u ~ +v suppresses one of them, whose window is
    then dropped for large v.  The integrals of all v run as one batch.
    """
    a, b = labels
    xsum, zsum = sum(xs), sum(zs)
    lo_c, hi_c = 2.0 * min(xs + zs), 2.0 * max(xs + zs)
    l_neg, l_pos, s_mid, tail = window

    def g(u, k):
        vk = v[k]
        ys = (0.5 * (u + vk), 0.5 * (u - vk))
        diffs = [x - y for x in xs for y in ys] + [y - z for y in ys for z in zs]
        ln_kern = sum(ops.ln_kernel(d) for d in diffs)
        plane = 1j * ops.kappa * (a * (xsum - u) + b * (u - zsum))
        return np.exp(ops.mu_rate * vk + plane + ln_kern)

    lo = -v + lo_c - l_neg
    hi = v + hi_c + l_pos
    if s_mid > 1e-12:
        hi = np.minimum(hi, -v + hi_c + tail / s_mid)
    elif s_mid < -1e-12:
        lo = np.maximum(lo, v + lo_c - tail / (-s_mid))
    return _adaptive_many(g, lo, hi, spec, freq, v.size, 2.0 * cap)


def _apply_q2_factored(
    spec: OperatorSpec, f: FunctionHandle, at: tuple[float, float], q: QuadSpec
) -> complex:
    """Two-variable operator on a symmetric factored input, in rotated
    coordinates u = y1 + y2, v = y1 - y2 (outer integral over v >= 0)."""
    ops = _Ops(spec.family, spec.dual, spec.coupling)
    lam = spec.spectral
    kap = ops.kappa
    meta = f.meta
    rho_plus = meta["label_plus"]
    profile = meta["profile"]
    phi_rate = meta["profile_rate"]

    # inner (u) direction: four kernels at slope k/2 each, plane factors
    u_rate_pos = 2.0 * ops.k_rate + kap * (rho_plus.imag - lam.imag)
    u_rate_neg = 2.0 * ops.k_rate - kap * (rho_plus.imag - lam.imag)
    # outer (v) direction: binding along the diagonal bumps u ~ +-v
    v_rate = 2.0 * ops.k_rate - ops.mu_rate + phi_rate - kap * abs(lam.imag)
    _require_positive(u_rate_pos, u_rate_neg, v_rate)

    u_freq = kap * abs((lam - rho_plus).real) + meta.get("profile_freq", 0.0)
    v_freq = kap * (abs(lam.real) + abs(rho_plus.real)) + meta.get("profile_freq", 0.0)
    v_max = _tail(q) / v_rate
    cap = 1.6 * kernel_pole_distance(spec.family, ops.kernel_coupling)
    # between the kernel bumps at u ~ -v and u ~ +v the plane factors decay at
    # this signed rate; one of the bumps is then exponentially suppressed and
    # its window can be dropped for large v
    s_mid = kap * (rho_plus.imag - lam.imag)
    window = (_tail(q) / u_rate_neg, _tail(q) / u_rate_pos, s_mid, _tail(q))

    def outer(v):
        vals = _rotated_inner(ops, at, (), (lam, rho_plus), v, window, q.split(), u_freq, cap)
        comp = np.exp(ops.ln_measure(v) - ops.mu_rate * v)
        return ops.two_pi_inv**2 * comp * (profile(v) * vals)

    return _adaptive(outer, 0.0, v_max, q, v_freq, 2.0 * cap)


def _apply_q2_generic(
    spec: OperatorSpec, f: FunctionHandle, at: tuple[float, float], q: QuadSpec
) -> complex:
    ops = _Ops(spec.family, spec.dual, spec.coupling)
    lam = spec.spectral
    kap = ops.kappa
    x1, x2 = at
    env = f.envelope
    # worst-case per-axis envelope: measure growth charged fully to each axis
    rate_pos = 2.0 * ops.k_rate - ops.mu_rate + env.rate_pos - kap * lam.imag
    rate_neg = 2.0 * ops.k_rate - ops.mu_rate + env.rate_neg + kap * lam.imag
    _require_positive(rate_pos, rate_neg)
    lo = min(x1, x2, env.center) - _tail(q) / rate_neg
    hi = max(x1, x2, env.center) + _tail(q) / rate_pos
    freq = kap * abs(lam.real) + env.freq
    inner_spec = q.split()
    cap = 1.6 * kernel_pole_distance(spec.family, ops.kernel_coupling)
    phase = 1j * kap * lam
    xsum = x1 + x2

    def outer(y2):
        y2 = np.asarray(y2, dtype=float).ravel()  # as in quad.integrate_plane

        def inner(y1, k):
            y2k = y2[k]
            kern = (
                ops.kernel(x1 - y1)
                * ops.kernel(x1 - y2k)
                * ops.kernel(x2 - y1)
                * ops.kernel(x2 - y2k)
            )
            return (
                ops.measure(y1 - y2k)
                * np.exp(phase * (xsum - y1 - y2k))
                * kern
                * f.fn(y1, y2k)
            )

        return _adaptive_many(inner, lo, hi, inner_spec, freq, y2.size, cap)

    return ops.two_pi_inv**2 * _adaptive(outer, lo, hi, q, freq, cap)


def apply_Q(spec: OperatorSpec, f: FunctionHandle, at, q: QuadSpec = QuadSpec()) -> complex:
    """[Q f] at one point (arity 1: at is a float; arity 2: a pair)."""
    if spec.arity == 1:
        return _apply_q1(spec, f, float(at), q)
    x1, x2 = at
    if f.kind == "factored_pair":
        return _apply_q2_factored(spec, f, (float(x1), float(x2)), q)
    return _apply_q2_generic(spec, f, (float(x1), float(x2)), q)


def apply_Lambda(
    spec: OperatorSpec, f: FunctionHandle, at, q: QuadSpec = QuadSpec()
) -> complex:
    """Raising operator at a pair of points: one integral, no measure factor."""
    ops = _Ops(spec.family, spec.dual, spec.coupling)
    lam = spec.spectral
    kap = ops.kappa
    x1, x2 = float(at[0]), float(at[1])
    env = f.envelope
    rate_pos = 2.0 * ops.k_rate + env.rate_pos - kap * lam.imag
    rate_neg = 2.0 * ops.k_rate + env.rate_neg + kap * lam.imag
    _require_positive(rate_pos, rate_neg)
    lo = min(x1, x2, env.center) - _tail(q) / rate_neg
    hi = max(x1, x2, env.center) + _tail(q) / rate_pos
    freq = kap * abs(lam.real) + env.freq
    phase = 1j * kap * lam
    xsum = x1 + x2

    def integrand(y):
        y = np.asarray(y, dtype=float)
        return (
            ops.two_pi_inv
            * np.exp(phase * (xsum - y))
            * ops.kernel(x1 - y)
            * ops.kernel(x2 - y)
            * f.fn(y)
        )

    cap = 1.6 * kernel_pole_distance(spec.family, ops.kernel_coupling)
    return _adaptive(integrand, lo, hi, q, freq, cap)


# ---------------------------------------------------------------------------
# factored pair transform (shared by wave functions and eigenfunction handles)
# ---------------------------------------------------------------------------


def pair_transform_rate(kind: KernelFamily, c_kernel: Coupling, delta: complex) -> float:
    """Envelope exponent in |v| of pair_transform for the given separation."""
    k = kernel_decay_rate(kind, c_kernel)
    kap = exponent_scale(kind, c_kernel)
    return k - 0.5 * kap * abs(complex(delta).imag)


def pair_transform(
    kind: KernelFamily,
    c_kernel: Coupling,
    delta: complex,
    v,
    q: QuadSpec = QuadSpec(),
) -> np.ndarray | complex:
    """int dy Kf(v/2 - y) Kf(v/2 + y) e^(i kappa delta y), vectorized over v.

    This even function of v is the separation profile of the two-variable
    eigenfunctions: the full function is e^(i kappa (l1+l2)(x1+x2)/2) times
    pair_transform at delta = l1 - l2, v = x1 - x2.  The gamma family carries
    its 1/(2 pi).

    Evenness lets v be replaced by |v|, and s = y + |v|/2 turns the integral
    into e^(-i kappa delta |v|/2) int ds Kf(s) e^(i kappa delta s) Kf(|v| - s)
    over [-L-, |v| + L+], L = tail / rate.  One composite Gauss-Legendre rule
    on [-L-, max|v| + L+] serves every v, so the weighted factor
    w Kf(s) e^(i kappa delta s) is evaluated once.  The v are taken in blocks
    of sorted |v| of about _PAIR_BLOCK kernel values, each on the node prefix
    up to its largest |v| + L+, which is the interval a lone v would use.
    """
    kind = KernelFamily(kind)
    ops = _Ops(kind, kind is not KernelFamily.HYPERBOLIC, c_kernel)
    kap = ops.kappa
    delta = complex(delta)
    k = ops.k_rate
    rate_pos = 2.0 * k + kap * delta.imag
    rate_neg = 2.0 * k - kap * delta.imag
    _require_positive(rate_pos, rate_neg)
    w = np.abs(np.asarray(v, dtype=float))
    l_pos = _tail(q) / rate_pos
    lo = -_tail(q) / rate_neg
    hi = float(np.max(w)) + l_pos
    width = min(
        8.0 / max(kap * abs(delta.real), k, 1.0),
        (hi - lo) / 8.0,
        1.6 * kernel_pole_distance(kind, c_kernel),
    )
    s, wt = _panels_on(lo, hi, width)
    row = ops.two_pi_inv * wt * ops.kernel(s) * np.exp(1j * kap * delta * s)
    back = lambda w: np.exp(-0.5j * kap * delta * w)
    if w.ndim == 0:
        return complex(back(w) * (ops.kernel(w - s) @ row))

    order = np.argsort(w, axis=None, kind="stable")
    ws = w.ravel()[order]
    # nodes each v needs: the panels whose first node is below |v| + L+
    used = _GL16_NODES.size * np.searchsorted(s[:: _GL16_NODES.size], ws + l_pos)
    # real and imaginary columns: the real kernel blocks need no complex copy
    row_ri = np.stack([row.real, row.imag], axis=1)
    out = np.empty(ws.size, dtype=complex)
    i = 0
    while i < ws.size:
        # the most rows whose block, on the last row's prefix, fits _PAIR_BLOCK
        size = np.arange(1, ws.size - i + 1) * used[i:]
        j = i + max(1, int(np.searchsorted(size, _PAIR_BLOCK, side="right")))
        p = int(used[j - 1])
        kern = ops.kernel((ws[i:j, None] - s[None, :p]).ravel()).reshape(j - i, p)
        re, im = (kern @ row_ri[:p]).T
        out[order[i:j]] = back(ws[i:j]) * (re + 1j * im)
        i = j
    return out.reshape(w.shape)


# ---------------------------------------------------------------------------
# composed kernels and exchange relations
# ---------------------------------------------------------------------------


def qq_convolution_kernel(
    spec: OperatorSpec,
    first: complex,
    second: complex,
    endpoints,
    q: QuadSpec = QuadSpec(),
) -> complex:
    """Kernel of Q(first) Q(second) between the given endpoint tuples.

    arity 1: endpoints = (x, z); arity 2: endpoints = ((x1, x2), (z1, z2)).
    Absolute convergence requires Im(first - second) inside the family strip;
    outside it DivergenceError is raised.
    """
    ops = _Ops(spec.family, spec.dual, spec.coupling)
    kap = ops.kappa
    first = complex(first)
    second = complex(second)
    dimag = kap * (second - first).imag
    if spec.arity == 1:
        x, z = float(endpoints[0]), float(endpoints[1])
        rate_pos = 2.0 * ops.k_rate + dimag
        rate_neg = 2.0 * ops.k_rate - dimag
        _require_positive(rate_pos, rate_neg)
        lo = min(x, z) - _tail(q) / rate_neg
        hi = max(x, z) + _tail(q) / rate_pos
        freq = kap * (abs(first.real) + abs(second.real))

        def integrand(s):
            s = np.asarray(s, dtype=float)
            return (
                ops.two_pi_inv
                * np.exp(1j * kap * (first * (x - s) + second * (s - z)))
                * ops.kernel(x - s)
                * ops.kernel(s - z)
            )

        cap = 1.6 * kernel_pole_distance(spec.family, ops.kernel_coupling)
        return _adaptive(integrand, lo, hi, q, freq, cap)

    (x1, x2), (z1, z2) = endpoints
    # u = y1 + y2, v = y1 - y2; integrand symmetric in v
    u_rate_pos = 4.0 * ops.k_rate + dimag
    u_rate_neg = 4.0 * ops.k_rate - dimag
    v_rate = 4.0 * ops.k_rate - ops.mu_rate - abs(dimag)
    _require_positive(u_rate_pos, u_rate_neg, v_rate)
    v_max = _tail(q) / v_rate
    freq = kap * (abs(first.real) + abs(second.real))
    cap = 1.6 * kernel_pole_distance(spec.family, ops.kernel_coupling)
    outer_measure = ops.measure(z1 - z2)
    window = (_tail(q) / u_rate_neg, _tail(q) / u_rate_pos, 0.0, _tail(q))

    def outer(v):
        vals = _rotated_inner(
            ops, (x1, x2), (z1, z2), (first, second), v, window, q.split(), freq, cap
        )
        return np.exp(ops.ln_measure(v) - ops.mu_rate * v) * vals

    return (
        ops.two_pi_inv**2
        * outer_measure
        * _adaptive(outer, 0.0, v_max, q, freq, 2.0 * cap)
    )


_EXCHANGE_SHIFT = {
    KernelFamily.HYPERBOLIC: lambda c: -1j * c.g,
    KernelFamily.GAMMA: lambda c: -0.5j * math.pi,
    KernelFamily.RELATIVISTIC: lambda c: -0.5j * c.gstar(),
}

_EXCHANGE_STRIP = {
    KernelFamily.HYPERBOLIC: lambda c: 2.0 * c.g,
    KernelFamily.GAMMA: lambda c: math.pi,
    KernelFamily.RELATIVISTIC: lambda c: c.gstar(),
}


def qlambda_exchange_check(
    family: KernelFamily,
    lam: complex,
    rho: complex,
    at,
    c: Coupling,
    q: QuadSpec = QuadSpec(),
    test_label: complex = 0.1,
) -> tuple[complex, complex]:
    """Both sides of the Q/raising-operator exchange relation at one point.

    The raising operator's argument is rho + shift with the family shift
    (-ig, -i pi/2, -i g*/2).  The hyperbolic family exercises the two-variable
    relation Q2(lam) L2(rho') = 2 q(lam, rho') L2(rho') Q1(lam) on the plane
    wave e^(i test_label t), evaluated at ``at`` = (x1, x2); the gamma and
    relativistic families exercise the one-variable relation (the raising
    operator there is multiplication by a shifted plane wave), with ``at``
    the spectral point.  Im(lam - rho) must lie strictly inside the family
    half-strip (-strip, 0) for absolute convergence.
    """
    family = KernelFamily(family)
    lam = complex(lam)
    rho = complex(rho)
    d = (lam - rho).imag
    strip = _EXCHANGE_STRIP[family](c)
    if not (-strip < d < 0.0):
        raise DivergenceError(
            f"Im(lam - rho) = {d:.3g} outside the convergence half-strip (-{strip:.3g}, 0)"
        )
    rho_shifted = rho + _EXCHANGE_SHIFT[family](c)

    if family is KernelFamily.HYPERBOLIC:
        x1, x2 = float(at[0]), float(at[1])
        lam1 = complex(test_label)
        delta = lam1 - rho_shifted
        prof_rate = pair_transform_rate(family, c, delta)
        prof = lambda v: pair_transform(family, c, delta, v, q)
        handle = factored_pair_handle(
            family, c, 0.5 * (lam1 + rho_shifted), prof, prof_rate,
            profile_freq=abs(delta.real),
        )
        q2 = OperatorSpec(family, 2, False, c, lam)
        lhs = apply_Q(q2, handle, (x1, x2), q)
        # right side: Q1 on the plane wave (checked pointwise), then the
        # raising operator, then the scalar 2 q(lam, rho')
        q1 = OperatorSpec(family, 1, False, c, lam)
        pw = plane_wave(lam1, family, c)
        r0 = apply_Q(q1, pw, 0.37, q) / complex(pw.fn(0.37))
        lam2 = OperatorSpec(family, 2, False, c, rho_shifted)
        rhs = 2.0 * kernel_hatK(lam - rho_shifted, c) * r0 * apply_Lambda(lam2, pw, (x1, x2), q)
        return lhs, rhs

    # one-variable relation: [Q1 e^(i kappa rho' .)](at) = q(., rho') e^(i kappa rho' at)
    lam0 = float(at)
    dual = True
    spec1 = OperatorSpec(family, 1, dual, c, lam)
    pw = plane_wave(rho_shifted, family, c)
    lhs = apply_Q(spec1, pw, lam0, q)
    ops = _Ops(family, dual, c)
    kap = ops.kappa
    rhs = ops.eigen(lam, rho_shifted) * complex(np.exp(1j * kap * rho_shifted * lam0))
    return lhs, rhs
