"""Pointwise application of the one- and two-variable integral operators.

Each family's one-variable operator acts on a test function f as

    [Q f](x) = c0 * int dy  e^(i kappa lambda (x - y)) Kf(x - y) f(y)

with Kf the family kernel, kappa the plane-wave scale (1, 1, 2 pi/(omega1
omega2)) and c0 = 1/(2 pi) for the gamma family.  The two-variable operators
add the family measure on the integration variables and a second kernel
factor per evaluation point; raising operators map one-variable functions to
two-variable ones through a single integral.  Every fact that depends on the
family (the coupling the kernel carries, ln-kernel and ln-measure, kappa, c0,
decay rates, pole distance, spectral strip, eigenvalue) is set in one place,
the per-family record _Ops.

Operators evaluate pointwise against caller-supplied function handles; no
discretized operator matrices are built.  The envelope of the composed
integrand is computed mechanically from the record's rates and the handle's
declared envelope, and integration is refused (DivergenceError) when the
combined rate is nonpositive.  Every integrand is formed as one
exp(sum ln K + sum ln mu + i kappa phase), so growing plane factors cancel
against decaying kernels before anything is exponentiated.  Every one-fold
integral (the one-variable operator, the raising operator, the one-variable
QQ kernel and the direct wave-function routes of wavefn) is one
kernel-product line integral, _kernel_line.  Every two-fold integral (the
two-variable operator on a factored or a generic input and the two-variable
QQ kernel) is its twin, _kernel_plane, taken in center-of-mass/separation
coordinates u = y1 + y2, v = y1 - y2, where the measure and a factored
profile depend on v only; the inner u integrals of each array of v are
advanced together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BudgetExceededError, DivergenceError, DomainError
from .kernels import (
    Coupling,
    KernelFamily,
    eigenvalue,
    exponent_scale,
    hatK_ln_evaluator,
    kg_ln_evaluator,
    ln_cosh,
    ln_measure_gamma,
    ln_measure_hyperbolic,
    ln_measure_relativistic,
)
from .quad import (
    _CALL_NODES, _GL16_NODES, _GL16_WEIGHTS, QuadSpec, _adaptive, _adaptive_many, _complex, _tail,
)

__all__ = [
    "OperatorSpec",
    "Envelope",
    "FunctionHandle",
    "plane_wave",
    "factored_pair_handle",
    "apply_Q",
    "apply_Lambda",
    "qq_convolution_kernel",
    "pair_transform",
]


# the two kernel factors of pair_transform sit at |v|/2 -+ y
_MIRROR = np.array([-1.0, 1.0])[:, None, None]


@dataclass(frozen=True)
class Envelope:
    """Signed exponential envelope of a handle: |f(t)| <~ e^(-rate_pos t) as
    t -> +inf and <~ e^(+rate_neg t) as t -> -inf.  Negative rates declare
    growth; operators check the combined rates before integrating.  A generic
    two-variable handle's rates are read per axis (t = y1, t = y2) and halved
    over the plane: |f| <~ e^(-rate max(|u|, |v|)/2), u = y1 + y2, v = y1 - y2."""

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
        object.__setattr__(self, "spectral", _complex(self.spectral, "OperatorSpec spectral"))
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
    """The per-family record of one operator, the one place that decides
    what depends on the family (one constructor branch each):

    kernel_coupling   relativistic non-dual operators carry the dual coupling
    eigen_coupling    kc, or kc* for the relativistic eigenvalue sqrt(w1 w2) S2(kc*) K_{kc*}
    ln_kernel, ln_measure  vectorized logs, summed in integrands before one exp
    kappa, two_pi_inv  plane-wave scale and the factor per integration variable
    k_rate, mu_rate   kernel decay and measure growth rates (mu = 2 k)
    pole              distance from the real axis to the nearest kernel pole
                      (Gauss panels spanning a kernel stay below 1.6 pole)
    strip             k_rate / kappa, the half-strip of plane-wave labels
    eigen             the one-variable operator's plane-wave eigenvalue
    """

    def __init__(self, family: KernelFamily, dual: bool, c: Coupling):
        family = KernelFamily(family)
        self.family = family
        self.kappa = exponent_scale(family, c)
        self.two_pi_inv = 1.0
        if family is KernelFamily.HYPERBOLIC:
            kc = self.eigen_coupling = c
            self.ln_kernel = lambda x: -kc.g * ln_cosh(x)
            self.ln_measure = lambda v: ln_measure_hyperbolic(v, kc)
            self.k_rate = self.strip = kc.g
            self.pole = 0.5 * math.pi
        elif family is KernelFamily.GAMMA:
            kc = self.eigen_coupling = c
            self.ln_kernel = hatK_ln_evaluator(kc.g)
            self.ln_measure = lambda v: ln_measure_gamma(v, kc)
            self.two_pi_inv = 1.0 / (2.0 * math.pi)
            self.k_rate = self.strip = 0.5 * math.pi
            self.pole = kc.g
        else:
            kc = c if dual else c.dual()
            self.ln_kernel = kg_ln_evaluator(kc)
            self.ln_measure = lambda v: ln_measure_relativistic(v, kc)
            self.k_rate = math.pi * kc.gstar() / kc.periods.product
            self.strip = 0.5 * kc.gstar()
            self.pole = 0.5 * kc.g
            self.eigen_coupling = c.dual() if dual else c
        self.kernel_coupling = kc
        self.mu_rate = 2.0 * self.k_rate

    def eigen(self, spectral: complex, label: complex) -> complex:
        return eigenvalue(self.family, spectral, label, self.eigen_coupling)


def plane_wave(label: complex, family: KernelFamily, c: Coupling) -> FunctionHandle:
    """e^(i kappa label t) with exact envelope bookkeeping."""
    kappa = exponent_scale(family, c)
    label = _complex(label, "plane_wave label")

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
    c_kernel: Coupling,
    label_plus: complex,
    delta: complex,
    q: QuadSpec = QuadSpec(),
) -> FunctionHandle:
    """Two-variable eigenfunction e^(i kappa label_plus (y1+y2)) * phi(y1-y2),

    with the separation profile phi = pair_transform(family, c_kernel, delta,
    .) of the kernel with coupling c_kernel; the profile decays at
    k_rate - kappa |Im delta| / 2 and oscillates at kappa |Re delta| / 2.
    """
    ops = _Ops(family, True, c_kernel)  # dual: c_kernel is the kernel's own coupling
    kappa = ops.kappa
    label_plus, delta = _complex(label_plus, "label_plus"), _complex(delta, "delta")

    def profile(v):
        return pair_transform(family, c_kernel, delta, v, q)

    def fn(y1, y2):
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        return np.exp(1j * kappa * label_plus * (y1 + y2)) * profile(y1 - y2)

    profile_freq = 0.5 * kappa * abs(delta.real)
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
            "profile_rate": ops.k_rate - 0.5 * kappa * abs(delta.imag),
            "profile_freq": profile_freq,
        },
    )


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------


def _require_positive(*rates: float) -> None:
    if min(rates) <= 0.0:
        raise DivergenceError(
            f"combined integrand envelope has nonpositive decay rate {min(rates):.3g}"
        )


def _kernel_line(ops, xs, zs, labels, q: QuadSpec, f: FunctionHandle | None = None) -> complex:
    """The one-fold kernel-product line integral of the operator layer,

        c0 int dy e^(i kappa (a (sum xs - y) + b (y - sum zs)))
                  prod K(x - y) prod K(y - z) f(y)

    for (a, b) = labels, x in xs, z in zs, c0 = ops.two_pi_inv and f an
    optional handle.  The n = len(xs) + len(zs) kernels decay at n k_rate, the
    plane factor adds -+ kappa Im(b - a) and the handle its own rates; the
    tails are cut beyond the outermost of the centers Re xs, Re zs and the
    handle's center, and the span of those centers is the core that the
    first quadrature panels cover uniformly.  The kernel logs join the plane
    exponent under one exp; complex xs or zs (continued spectral values)
    reach the kernel as complex arguments.
    """
    a, b = labels
    kap = ops.kappa
    centers = [complex(c).real for c in (*xs, *zs)]
    env = Envelope()
    if f is not None:
        env = f.envelope
        centers.append(env.center)
    n = len(xs) + len(zs)
    d = b - a
    rate_pos = n * ops.k_rate + env.rate_pos + kap * d.imag
    rate_neg = n * ops.k_rate + env.rate_neg - kap * d.imag
    _require_positive(rate_pos, rate_neg)
    lo = min(centers) - _tail(q) / rate_neg
    hi = max(centers) + _tail(q) / rate_pos
    freq = kap * abs(d.real) + env.freq
    xsum, zsum = sum(xs), sum(zs)

    def integrand(y):
        y = np.asarray(y, dtype=float)
        diffs = [x - y for x in xs] + [y - z for z in zs]
        ln_kern = sum(ops.ln_kernel(d) for d in diffs)
        plane = 1j * kap * (a * (xsum - y) + b * (y - zsum))
        out = ops.two_pi_inv * np.exp(plane + ln_kern)
        return out if f is None else out * f.fn(y)

    return _adaptive(integrand, lo, hi, min(centers), max(centers), q, freq, 1.6 * ops.pole)


def _kernel_plane(ops, xs, zs, labels, q: QuadSpec, f: FunctionHandle | None = None) -> complex:
    """The two-fold kernel-product integral of the operator layer,

        c0^2 int dy1 dy2 mu(y1 - y2) e^(i kappa (a (sum xs - u) + b (u - sum zs)))
                         prod K(x - y_j) prod K(y_j - z) f(y1, y2)

    for u = y1 + y2, (a, b) = labels, x in xs, z in zs and f an optional
    handle: inner integrals over u, batched per array of v = y1 - y2, and an
    outer one over v >= 0.  All but a generic f is even in v; a generic f
    enters as (f(y1, y2) + f(y2, y1)) / 2 and adds half its per-axis rates,
    a factored one adds its label_plus to b and its profile on the v axis.
    With n = len(xs) + len(zs) and s = kappa Im(b - a) the u rates are
    n k_rate +- s and the v rate n k_rate - mu_rate - |s|: between the kernel
    bumps at u ~ -+v the plane factor decays at the signed rate s, which
    (generic f aside) drops one bump's window for large v.  The inner
    integrals carry e^(mu_rate v), taken out again on the v axis, so the
    outer integrand stays finite on slowly decaying tails.

    The first quadrature panels are uniform only over each axis's core and
    double through the tails: the u core is the kernel-bump window
    [-v + 2 min c, v + 2 max c] over the centers c, the v core [0, 2 (max c
    - min c)], since the measure's growth against the kernels' decay puts
    the bulk of the v integrand past the centers' spread.
    """
    a, b = labels
    kap = ops.kappa
    centers = [*xs, *zs]
    generic = f is not None and f.kind != "factored_pair"
    h_pos = h_neg = h_v = h_freq = 0.0
    profile = lambda v: 1.0
    if generic:
        env = f.envelope
        centers.append(env.center)
        h_pos, h_neg = 0.5 * env.rate_pos, 0.5 * env.rate_neg
        h_v, h_freq = min(h_pos, h_neg), env.freq
    elif f is not None:
        meta = f.meta
        b = b + meta["label_plus"]
        profile, h_v, h_freq = meta["profile"], meta["profile_rate"], meta["profile_freq"]
    n = len(xs) + len(zs)
    s = kap * (b - a).imag
    u_rate_pos = n * ops.k_rate + s + h_pos
    u_rate_neg = n * ops.k_rate - s + h_neg
    v_rate = n * ops.k_rate - ops.mu_rate - abs(s) + h_v
    _require_positive(u_rate_pos, u_rate_neg, v_rate)
    tail = _tail(q)
    u_freq = kap * abs((b - a).real) + h_freq
    v_freq = kap * (abs(a.real) + abs(b.real)) + h_freq
    # along u and v each kernel varies at half its rate, so its poles are twice as far
    cap = 2.0 * 1.6 * ops.pole
    drop = 0.0 if generic else s
    xsum, zsum = sum(xs), sum(zs)
    lo_c, hi_c = 2.0 * min(centers), 2.0 * max(centers)

    def outer(v):
        v = np.asarray(v, dtype=float).ravel()  # as in quad.integrate_plane

        def g(u, k):
            vk = v[k]
            ys = (0.5 * (u + vk), 0.5 * (u - vk))
            diffs = [x - y for x in xs for y in ys] + [y - z for y in ys for z in zs]
            ln_kern = sum(ops.ln_kernel(d) for d in diffs)
            plane = 1j * kap * (a * (xsum - u) + b * (u - zsum))
            out = np.exp(ops.mu_rate * vk + plane + ln_kern)
            return out * (0.5 * (f.fn(*ys) + f.fn(*ys[::-1]))) if generic else out

        lo = -v + lo_c - tail / u_rate_neg
        hi = v + hi_c + tail / u_rate_pos
        if drop > 1e-12:
            hi = np.minimum(hi, -v + hi_c + tail / drop)
        elif drop < -1e-12:
            lo = np.maximum(lo, v + lo_c - tail / (-drop))
        vals = _adaptive_many(g, lo, hi, -v + lo_c, v + hi_c, q.split(), u_freq, v.size, cap)
        comp = np.exp(ops.ln_measure(v) - ops.mu_rate * v)
        return ops.two_pi_inv**2 * comp * (profile(v) * vals)

    return _adaptive(outer, 0.0, tail / v_rate, 0.0, hi_c - lo_c, q, v_freq, cap)


def _point(at, shape: tuple):
    """``at`` as floats (lists for pairs); DomainError unless finite and of this shape."""
    try:
        p = np.asarray(at, dtype=float)
    except (TypeError, ValueError):
        p = None
    if p is None or p.shape != shape or not np.isfinite(p).all():
        raise DomainError(f"evaluation point {at!r} is not a finite point of shape {shape}")
    return p.tolist()


def apply_Q(spec: OperatorSpec, f: FunctionHandle, at, q: QuadSpec = QuadSpec()) -> complex:
    """[Q f] at one point (arity 1: at is a float; arity 2: a pair)."""
    ops = _Ops(spec.family, spec.dual, spec.coupling)
    if spec.arity == 1:
        return _kernel_line(ops, (_point(at, ()),), (), (spec.spectral, 0.0), q, f)
    return _kernel_plane(ops, tuple(_point(at, (2,))), (), (spec.spectral, 0.0), q, f)


def apply_Lambda(
    spec: OperatorSpec, f: FunctionHandle, at, q: QuadSpec = QuadSpec()
) -> complex:
    """Raising operator at a pair of points: one integral, no measure factor."""
    ops = _Ops(spec.family, spec.dual, spec.coupling)
    return _kernel_line(ops, tuple(_point(at, (2,))), (), (spec.spectral, 0.0), q, f)


# ---------------------------------------------------------------------------
# factored pair transform (shared by wave functions and eigenfunction handles)
# ---------------------------------------------------------------------------


def _pair_panels(ops: _Ops, kd, lo, hi, c) -> np.ndarray:
    """Gauss-Legendre sums of c0 Kf(c - y) Kf(c + y) 2 cos(kd y) over the
    panels y in [c - hi, c - lo], c = |v|/2 (one float or one per panel)."""
    half = 0.5 * (hi - lo)
    # nodes mirrored about each panel middle (the rule is symmetric)
    y = (c - lo - half)[:, None] + half[:, None] * _GL16_NODES
    ln = ops.ln_kernel(np.reshape(c, (-1, 1)) + _MIRROR * y)  # both factors, one call
    return (np.exp(ln[0] + ln[1]) * np.cos(kd * y)) @ _GL16_WEIGHTS * (2.0 * ops.two_pi_inv) * half


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

    The kernel product is even in y, so the integral is
    int_0^inf dy Kf(|v|/2 - y) Kf(|v|/2 + y) 2 cos(kappa delta y).  Past the
    kernel bump at y = |v|/2 it decays at 2 k - kappa |Im delta| and is cut
    tail / that rate beyond the bump.  Gauss-Legendre panels are laid out in
    t = |v|/2 - y: h0 wide over the tail and within 2 h0 of the bump; toward
    y = 0, where the kernel product is smooth and about e^(-k |v|), each
    panel is twice as wide as its near edge is far from the bump, and at most
    8 / max(kappa |delta|, 1) for the cosine.  The edges do not depend on v:
    each v takes those below |v|/2, its last panel ending at y = 0.  Nodes
    reach the kernel in calls of at most _CALL_NODES, unless one v needs more.
    An empty v gives an empty array; a v that is not finite and real, or a
    delta that is not a finite number, raises DomainError; a rule of more
    than q.max_nodes nodes for one v raises BudgetExceededError unbuilt.
    """
    w, delta = np.asarray(v), _complex(delta, "pair_transform delta")
    if w.dtype.kind not in "biuf" or not np.isfinite(w).all():
        raise DomainError("pair_transform needs finite real v")
    w = w.astype(float, copy=False)
    if w.size == 0:
        return np.empty(w.shape, dtype=complex)
    ops = _Ops(kind, True, c_kernel)
    kd = ops.kappa * delta
    rate = 2.0 * ops.k_rate - abs(kd.imag)
    _require_positive(rate)
    kd = kd if kd.imag else kd.real  # a real cosine for real delta
    hw = 0.5 * abs(float(w)) if w.ndim == 0 else 0.5 * np.abs(w.ravel())
    top = float(np.max(hw))
    cap = 8.0 / max(abs(kd), 1.0)
    h0 = min(8.0 / max(abs(kd), ops.k_rate, 1.0), 1.6 * ops.pole)
    # nodes of the largest |v|/2, bounded above: the tail, geometric and linear runs
    n_v = 16.0 * (_tail(q) / rate / h0 + math.log(cap / h0, 3.0) + top / cap + 8.0) if h0 else math.inf
    if n_v > q.max_nodes:
        raise BudgetExceededError(math.nan, math.inf, n_v, f"pair rule of {n_v:.3g} nodes per v refused")
    # t edges: by h0 from the tail to 2 h0, then x3 while the width 2t stays
    # under cap, by cap to about the largest |v|/2, and one at infinity as the end
    geo = [2.0 * h0 * 3.0**j for j in range(max(1, math.floor(math.log(cap / h0 / 4.0, 3.0)) + 2))]
    lin = geo[-1] + cap * np.arange(1, max(1, math.ceil((top - geo[-1]) / cap)) + 1)
    edges = np.concatenate([h0 * np.arange(-math.ceil(_tail(q) / (rate * h0)), 2), geo, lin, [np.inf]])
    if w.ndim == 0:
        n = int(np.searchsorted(edges, hw))  # the edges below |v|/2
        return complex(_pair_panels(ops, kd, edges[:n], np.append(edges[1:n], hw), hw).sum())
    n = np.searchsorted(edges, hw)
    ends = np.cumsum(n)
    start = ends - n
    per = _CALL_NODES // (2 * _GL16_NODES.size)  # panels per kernel call
    out = np.empty(hw.size, dtype=complex)
    i = 0
    while i < hw.size:
        j = max(i + 1, int(np.searchsorted(ends, start[i] + per, side="right")))
        m = n[i:j]
        first = start[i:j] - start[i]  # each v's first panel
        k = np.arange(first[-1] + m[-1]) - np.repeat(first, m)
        hi = edges[k + 1]
        hi[first + m - 1] = hw[i:j]
        sums = _pair_panels(ops, kd, edges[k], hi, np.repeat(hw[i:j], m))
        out[i:j] = np.add.reduceat(sums, first)
        i = j
    return out.reshape(w.shape)


# ---------------------------------------------------------------------------
# composed kernels
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
    labels = (_complex(first, "first label"), _complex(second, "second label"))
    if spec.arity == 1:
        x, z = _point(endpoints, (2,))
        return _kernel_line(ops, (x,), (z,), labels, q)
    (x1, x2), (z1, z2) = _point(endpoints, (2, 2))
    return np.exp(ops.ln_measure(z1 - z2)) * _kernel_plane(ops, (x1, x2), (z1, z2), labels, q)
