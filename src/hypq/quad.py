"""Tolerance-driven quadrature for oscillatory integrands with exponential tails.

The adaptive driver uses the embedded Gauss(7)/Kronrod(15) pair on panels of a
truncated interval; truncation lengths come from the caller-declared
DecayProfile, never from introspecting the integrand.  The first panels are
at most one period 2*pi/freq_hint wide; each round then halves every panel
whose error estimate exceeds its share of the tolerance.  Panel state lives
in numpy arrays, and one routine can advance many integrals together, each
over its own interval and with its own tolerance test, splits and node
budget, starting from the panels a lone call would take, so each value is
bit-identical to a lone call's: integrate_plane and the two-variable
operators run the inner integrals of a whole array of outer abscissae that
way.  The integrand is never called on more than _CHUNK_NODES nodes at
once, which bounds the memory of a batch.  Panel subdivision and the final
compensated summation run in a fixed deterministic order, so identical
inputs give bit-identical results.

oracle_trapezoid / oracle_trapezoid_2d are deliberately simple fixed-grid
rules used as the independent reference when freezing expected values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetExceededError, DomainError, HypqError, NonFiniteSampleError

__all__ = [
    "QuadSpec",
    "DecayProfile",
    "integrate_line",
    "integrate_half_line",
    "integrate_plane",
    "oracle_trapezoid",
    "oracle_trapezoid_2d",
]

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK values).
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.000000000000000,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# full 15-point layout, nodes ordered left to right
_K_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[:-1][::-1]])
_K_WEIGHTS = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[:-1][::-1]])
# the embedded Gauss-7 rule lives on nodes 1, 3, ..., 13
_G_WEIGHTS = np.zeros(15)
_G_WEIGHTS[1:14:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[:-1][::-1]])
# both rules as the columns of one complex matrix: complex @ complex runs in
# BLAS, where complex @ float takes a generic loop hundreds of times slower
_KG_WEIGHTS = np.stack([_K_WEIGHTS, _G_WEIGHTS], axis=1).astype(complex)

# most integrand nodes passed to one call of an integrand; bounds the memory
# that a batch of panels (or of inner integrals) takes
_CHUNK_NODES = 32_768
# adaptive rounds after the first, per integral
_MAX_ROUNDS = 60


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances, truncation policy and node budget for the adaptive rules."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_nodes: int = 2_000_000
    truncation_safety: float = 1.5

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("rel_tol and abs_tol must be positive")
        if self.max_nodes < 64:
            raise DomainError("max_nodes must be at least 64")
        if self.truncation_safety < 1.0:
            raise DomainError("truncation_safety must be >= 1")

    def split(self, factor: float = 2.0) -> "QuadSpec":
        """Tightened spec for one axis of an iterated integral."""
        return QuadSpec(
            rel_tol=self.rel_tol / factor,
            abs_tol=self.abs_tol / factor,
            max_nodes=self.max_nodes,
            truncation_safety=self.truncation_safety,
        )


@dataclass(frozen=True)
class DecayProfile:
    """Exponential envelope exponents of an integrand about a center point."""

    rate_pos: float
    rate_neg: float
    center: float = 0.0

    def __post_init__(self):
        if not (self.rate_pos > 0 and self.rate_neg > 0):
            raise DomainError("decay rates must be positive")

    def shifted(self, a: float) -> "DecayProfile":
        return DecayProfile(self.rate_pos, self.rate_neg, self.center + a)


_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panels_on(a: float, b: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre nodes and weights on [a, b]."""
    n = max(1, int(math.ceil((b - a) / width)))
    edges = np.linspace(a, b, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL16_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL16_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _eval_batch(f: Callable, x: np.ndarray, each: Callable | None = None) -> np.ndarray:
    """Evaluate f on an array of abscissae, accepting scalar-only callables.

    If f fails on the array, node i is evaluated alone, as each(i) when given
    (for an integrand that needs more than the abscissa), else as f(x[i]).
    A HypqError from f is its verdict on these abscissae and propagates.
    """
    try:
        y = np.asarray(f(x), dtype=complex)
        if y.shape != x.shape:
            raise TypeError
    except HypqError:
        raise
    except (TypeError, ValueError):
        if each is None:
            each = lambda i: f(float(x[i]))
        y = np.array([complex(each(i)) for i in range(x.size)])
    if not np.isfinite(y).all():
        bad = np.flatnonzero(~np.isfinite(y))[0]
        raise NonFiniteSampleError(float(x[bad]))
    return y


def _gk_batch(
    f, lo: np.ndarray, hi: np.ndarray, own: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and |K15 - G7| error estimates for a batch of panels.

    Panel i belongs to integral own[i]; f(x, k) is called with at most
    _CHUNK_NODES abscissae x at a time, k holding each node's integral.
    """
    val = np.empty(lo.size, dtype=complex)
    err = np.empty(lo.size)
    step = _CHUNK_NODES // _K_NODES.size
    for i in range(0, lo.size, step):
        part = slice(i, i + step)
        mid = 0.5 * (lo[part] + hi[part])
        half = 0.5 * (hi[part] - lo[part])
        x = mid[:, None] + half[:, None] * _K_NODES[None, :]
        xs, k = x.ravel(), np.repeat(own[part], _K_NODES.size)
        y = _eval_batch(
            lambda v: f(v, k), xs, lambda j: f(float(xs[j]), int(k[j]))
        ).reshape(x.shape)
        kg = half[:, None] * (y @ _KG_WEIGHTS)
        val[part] = kg[:, 0]
        err[part] = np.abs(kg[:, 0] - kg[:, 1])
    return val, err


def _fsum_by_integral(out: np.ndarray, own: np.ndarray, val: np.ndarray) -> None:
    """out[k] = compensated sum of the panel values val[own == k], for each k in own."""
    order = np.argsort(own)
    own = own[order]
    re, im = val.real[order].tolist(), val.imag[order].tolist()
    cuts = (np.flatnonzero(own[1:] != own[:-1]) + 1).tolist()
    for i, j in zip([0] + cuts, cuts + [own.size]):
        out[own[i]] = complex(math.fsum(re[i:j]), math.fsum(im[i:j]))


def _adaptive_many(
    f,
    a,
    b,
    spec: QuadSpec,
    freq_hint: float,
    m: int,
    max_panel: float = math.inf,
) -> np.ndarray:
    """Integrals over [a[k], b[k]] of x -> f(x, k) for k = 0, ..., m-1, advanced together.

    ``a`` and ``b`` are scalars or length-m arrays.  Every integral starts on
    the panels that a lone adaptive integral over its interval takes and then
    runs the rounds that it would: its own tolerance test, splits, round cap
    and node budget, so its value does not depend on the others.  Integrals
    are taken in consecutive groups whose first round is at most _CHUNK_NODES
    nodes (or one integral).
    """
    a = np.full(m, a, dtype=float)
    b = np.full(m, b, dtype=float)
    if not (b > a).all():
        raise DomainError("empty integration interval")
    width = b - a
    w0 = np.minimum(width / 8.0, max_panel)
    if freq_hint > 0.0:
        # one oscillation period per first panel
        w0 = np.minimum(w0, 2.0 * math.pi / freq_hint)
    n0 = np.maximum(8, np.ceil(width / w0).astype(np.int64))
    ends = np.cumsum(n0)  # first-round panels up to each integral
    out = np.empty(m, dtype=complex)
    first = 0
    while first < m:
        room = (ends[first - 1] if first else 0) + _CHUNK_NODES // _K_NODES.size
        last = max(first + 1, int(np.searchsorted(ends, room, side="right")))
        part = slice(first, last)
        _advance(f, a[part], b[part], n0[part], first, spec, out[part])
        first = last
    return out


def _advance(f, a, b, n0, first: int, spec: QuadSpec, out) -> None:
    """Run integrals first, ..., first+len(out)-1 of _adaptive_many to the end,
    from n0[k] equal first panels on [a[k], b[k]]."""
    size = out.size
    own = np.repeat(np.arange(size), n0)  # integral of each panel
    # panel edges as np.linspace(a, b, n0 + 1) computes them
    i = np.arange(own.size) - np.repeat(np.cumsum(n0) - n0, n0)
    step = ((b - a) / n0)[own]
    lo = i * step + a[own]
    hi = np.where(i + 1 == n0[own], b[own], (i + 1) * step + a[own])
    val, err = _gk_batch(f, lo, hi, own + first)
    used = _K_NODES.size * n0

    for _ in range(_MAX_ROUNDS):
        # sequential per-integral sums, in panel order
        total = np.bincount(own, val.real, size) + 1j * np.bincount(own, val.imag, size)
        total_err = np.bincount(own, err, size)
        count = np.bincount(own, minlength=size)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        # integrals finished in earlier rounds have no panels and count as done
        done = total_err <= tol
        broke = np.flatnonzero(~done & (used >= spec.max_nodes))
        if broke.size:
            k = broke[0]
            raise BudgetExceededError(complex(total[k]), float(total_err[k]), int(used[k]))
        cut = tol / (2.0 * np.maximum(count, 1))
        cut[done] = np.inf
        split = err > cut[own]
        done |= np.bincount(own[split], minlength=size) == 0
        fin = done[own]
        if fin.any():
            _fsum_by_integral(out, own[fin], val[fin])
            if fin.all():
                return
        keep = ~(fin | split)
        lo_s, hi_s = lo[split], hi[split]
        mid = 0.5 * (lo_s + hi_s)
        lo2 = np.concatenate([lo_s, mid])
        hi2 = np.concatenate([mid, hi_s])
        own2 = np.concatenate([own[split], own[split]])
        val2, err2 = _gk_batch(f, lo2, hi2, own2 + first)
        used += _K_NODES.size * np.bincount(own2, minlength=size)
        lo = np.concatenate([lo[keep], lo2])
        hi = np.concatenate([hi[keep], hi2])
        own = np.concatenate([own[keep], own2])
        val = np.concatenate([val[keep], val2])
        err = np.concatenate([err[keep], err2])

    _fsum_by_integral(out, own, val)


def _adaptive(
    f, a: float, b: float, spec: QuadSpec, freq_hint: float, max_panel: float = math.inf
) -> complex:
    """One adaptive Gauss-Kronrod integral of f over [a, b]."""
    return complex(
        _adaptive_many(lambda x, k: f(x), a, b, spec, freq_hint, 1, max_panel)[0]
    )


def _tail(q: QuadSpec) -> float:
    """Envelope exponent at which tails are cut: safety * (-ln(abs_tol/10))."""
    return q.truncation_safety * (-math.log(q.abs_tol / 10.0))


def _trunc_lengths(d: DecayProfile, s: QuadSpec) -> tuple[float, float]:
    return _tail(s) / d.rate_neg, _tail(s) / d.rate_pos


def integrate_line(
    f: Callable,
    d: DecayProfile,
    s: QuadSpec = QuadSpec(),
    freq_hint: float = 0.0,
) -> complex:
    """Integrate f over the real line using the declared exponential envelope.

    The interval is [center - L-, center + L+] with
    L = truncation_safety * (-ln(abs_tol/10)) / rate, after which adaptive
    Gauss-Kronrod panels drive the estimated error below
    max(abs_tol, rel_tol * |I|).  With ``freq_hint`` > 0 the first panels are
    at most one period 2*pi/freq_hint wide.  ``f`` should accept a numpy
    array of abscissae, of at most 32,768 nodes per call (scalar-only
    callables are mapped, slowly).
    """
    l_neg, l_pos = _trunc_lengths(d, s)
    return _adaptive(f, d.center - l_neg, d.center + l_pos, s, freq_hint)


def integrate_half_line(
    f: Callable,
    rate: float,
    s: QuadSpec = QuadSpec(),
    freq_hint: float = 0.0,
    start: float = 0.0,
    safety_scale: float = 1.0,
) -> complex:
    """Integrate f on [start, start + L], L sized from the declared decay rate.

    ``safety_scale`` multiplies the tail target to account for integrands with
    a slowly growing prefactor on top of the exponential envelope.
    """
    if rate <= 0:
        raise DomainError("decay rate must be positive")
    target = -math.log(s.abs_tol / 10.0) + math.log(max(safety_scale, 1.0))
    length = s.truncation_safety * target / rate
    return _adaptive(f, start, start + length, s, freq_hint)


def integrate_plane(
    f: Callable,
    d1: DecayProfile,
    d2: DecayProfile,
    s: QuadSpec = QuadSpec(),
    freq_hint1: float = 0.0,
    freq_hint2: float = 0.0,
) -> complex:
    """Iterated line integral of f(y1, y2) with per-axis truncation.

    The tolerance is split evenly between the axes.  The outer (y2) rule is
    evaluated on arrays of abscissae, and the inner (y1) integrals of one
    such array are advanced together: each keeps its own tolerance test,
    splits and node budget at the split tolerance, so it gives the value a
    separate integrate_line call would.  ``f`` should accept two numpy arrays
    of equal shape, of at most 32,768 nodes per call (scalar-only callables
    are mapped, slowly).
    """
    inner_spec = s.split()
    l_neg, l_pos = _trunc_lengths(d1, inner_spec)

    def outer(y2):
        # 1-d even for the scalar y2 of an f failing on scalars, so f's error surfaces
        y2 = np.asarray(y2, dtype=float).ravel()
        return _adaptive_many(
            lambda y1, k: f(y1, y2[k]),
            d1.center - l_neg,
            d1.center + l_pos,
            inner_spec,
            freq_hint1,
            y2.size,
        )

    return integrate_line(outer, d2, s, freq_hint2)


def oracle_trapezoid(f: Callable, L: float, n: int) -> complex:
    """Plain composite trapezoid of f on [-L, L] with n nodes (n odd).

    No adaptivity and no error control: this is the provenance oracle used to
    freeze expected values.  Bit-reproducible given (f, L, n).
    """
    if n % 2 == 0 or n < 3:
        raise DomainError("n must be odd and >= 3")
    if not L > 0:
        raise DomainError("L must be positive")
    x = np.linspace(-L, L, n)
    y = _eval_batch(f, x)
    w = np.full(n, 2.0 * L / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return complex(np.dot(w, y))


def oracle_trapezoid_2d(f: Callable, L: float, n: int) -> complex:
    """Tensor-product trapezoid of f(y1, y2) on [-L, L]^2 with n^2 nodes."""
    if n % 2 == 0 or n < 3:
        raise DomainError("n must be odd and >= 3")
    if not L > 0:
        raise DomainError("L must be positive")
    x = np.linspace(-L, L, n)
    w = np.full(n, 2.0 * L / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    acc = 0.0 + 0.0j
    for i in range(n):
        row = np.asarray(f(np.full(n, x[i]), x), dtype=complex)
        acc += w[i] * complex(np.dot(w, row))
    return acc
