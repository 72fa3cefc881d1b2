"""Tolerance-driven quadrature for oscillatory integrands with exponential tails.

The adaptive driver uses the embedded Gauss(7)/Kronrod(15) pair on panels of a
truncated interval; truncation lengths come from the caller-declared
DecayProfile, never from introspecting the integrand.  Each integral names its
core, the part that is not tail: the first panels are equal over the core, at
most one period 2*pi/freq_hint wide, and double in width through each tail out
to the cut, so the padding of a cut costs O(log) panels.  Each round then
halves every panel whose error estimate exceeds its share of the tolerance,
tail panels included.  |K15 - G7| is the error of G7, not of K15: where the
orthonormal-Legendre coefficients a_9, ..., a_14 of the Kronrod values fall by
at least 1/4 per pair, K15 has converged, and its error is read off that decay
instead (after Berntsen & Espelid, ACM TOMS 17, 1991, and Gonnet, ACM Comput.
Surv. 44, 2012).  That estimate is capped by |K15 - G7| and floored at 50
machine epsilons of the panel's integral of |f|, so it only ever lowers |K15 -
G7|, and never below rounding.  Panel state lives in numpy arrays, and one
routine (_adaptive_many) advances many integrals together, each over its own
interval and with its own tolerance test, splits and node budget, so no value
depends on the others.  A lone integral (_adaptive) is that routine for one
integral; integrate_plane and the two-variable operators run the inner
integrals of a whole array of outer abscissae through it in one call.  The
one bound on a batch is _CALL_NODES: the integrand is never called on more
nodes at once, which keeps each array of a call below the size at which the
C allocator maps it from fresh pages and unmaps it on free.  Panel
subdivision and the final compensated summation run in a fixed
deterministic order, so identical inputs give bit-identical results.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    GammaOverflowError,
    HypqError,
    NonConvergenceError,
    NonFiniteSampleError,
)

__all__ = [
    "QuadSpec",
    "DecayProfile",
    "integrate_line",
    "integrate_plane",
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
# orthonormal-Legendre coefficients a_9, ..., a_14 of the degree-14 polynomial
# through the 15 Kronrod values, as linear functionals of those values
_HIGH_COEFFS = np.linalg.inv(
    np.polynomial.legendre.legvander(_K_NODES, 14) * np.sqrt(np.arange(15) + 0.5)
)[9:].T
# both rules and the six coefficients as the columns of one complex matrix:
# complex @ complex runs in BLAS, where complex @ float takes a generic loop
# hundreds of times slower; at 8 columns OpenBLAS keeps the product of one
# batch on one thread
_KG_WEIGHTS = np.column_stack([_K_WEIGHTS, _G_WEIGHTS, _HIGH_COEFFS]).astype(complex)
# the K15 error is read off the coefficient decay where the pair magnitudes
# fall by at least _DECAY_RATIO per pair, scaled by _DECAY_SAFETY, and is
# never put below _ROUNDING (50 eps) times the panel's integral of |f|
_DECAY_RATIO = 0.25
_DECAY_SAFETY = 10.0
_ROUNDING = 50.0 * np.finfo(float).eps

# most integrand nodes passed to one call of an integrand (546 panels): a
# complex array of this many nodes stays under glibc's default 128 KiB mmap
# threshold, so it is not mapped afresh, page by page, on every call
_CALL_NODES = 8_190
# adaptive rounds after the first, per integral
_MAX_ROUNDS = 60


def _real(x, what: str, finite: bool = False) -> float:
    """x as a float; DomainError, naming it as ``what``, unless it is a real
    number other than NaN within the double range, and a finite one if
    ``finite`` (decay rates and kernel limits take +-inf)."""
    # float and int first: they pass without numbers.Real's slower ABC check
    try:
        if isinstance(x, (float, int, numbers.Real)) and (
            math.isfinite(x) or not (finite or math.isnan(x))
        ):
            return float(x)
    except OverflowError:  # an int past the double range
        raise DomainError(f"{what} must be a real number within the double range") from None
    kind = "finite" if finite else "finite or infinite"
    raise DomainError(f"{what} must be a {kind} real number, got {x!r}")


def _complex(x, what: str) -> complex:
    """x as a complex number; DomainError, naming it as ``what``, unless it is
    a finite number within the double range."""
    try:
        if isinstance(x, (float, complex, int, numbers.Complex)) and cmath.isfinite(x):
            return complex(x)
    except OverflowError:  # an int past the double range
        raise DomainError(f"{what} needs a finite argument within the double range") from None
    raise DomainError(f"{what} needs a finite argument, got {x!r}")


def _finite(value, message: str, arg):
    """value, a scalar result, if it is a finite number; else GammaOverflowError
    with message.format(arg)."""
    if cmath.isfinite(value):
        return value
    raise GammaOverflowError(message.format(arg))


def _exp_or_zero(ln: complex, message: str, arg) -> complex:
    """e^ln at one point: 0 where Re ln is below the double range, whatever
    its phase, and _finite's error where the value or its phase is above it."""
    if ln.real < -746.0:  # e^x rounds to 0 below here
        return 0j
    try:
        return _finite(cmath.exp(ln), message, arg)
    except (OverflowError, ValueError):  # ValueError: an infinite phase
        raise GammaOverflowError(message.format(arg)) from None


def _exp_times(ln: complex, value: complex, message: str, arg) -> complex:
    """e^ln * value at one point: the plain product where it is finite, else
    formed under the log, as _exp_or_zero does, since e^ln alone may be past
    the double range; _finite's error where value is 0 there."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing e^ln is taken below
        out = complex(np.exp(ln) * value)
    if cmath.isfinite(out) or value == 0:
        return _finite(out, message, arg)
    return _exp_or_zero(ln + cmath.log(value), message, arg)


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances, truncation policy and node budget for the adaptive rules."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_nodes: int = 2_000_000
    truncation_safety: float = 1.5

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_nodes", "truncation_safety"):
            _real(getattr(self, name), name, finite=True)
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("rel_tol and abs_tol must be positive")
        if self.max_nodes < 64:
            raise DomainError("max_nodes must be at least 64")
        if not self.truncation_safety >= 1.0:
            raise DomainError("truncation_safety must be >= 1")

    def split(self) -> "QuadSpec":
        """Tightened spec for one axis of an iterated integral: half of each tolerance."""
        return replace(self, rel_tol=self.rel_tol / 2.0, abs_tol=self.abs_tol / 2.0)


@dataclass(frozen=True)
class DecayProfile:
    """Exponential envelope exponents of an integrand about a center point.

    A rate of math.inf on one side ends the interval at ``center`` on that
    side, so DecayProfile(r, math.inf) integrates over [center, center + L+].
    """

    rate_pos: float
    rate_neg: float
    center: float = 0.0

    def __post_init__(self):
        if not (_real(self.rate_pos, "rate_pos") > 0 and _real(self.rate_neg, "rate_neg") > 0):
            raise DomainError("decay rates must be positive")
        _real(self.center, "center", finite=True)

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


def _eval_batch(f: Callable, x: np.ndarray, each: Callable) -> np.ndarray:
    """Evaluate f on an array of abscissae, accepting scalar-only callables.

    If f fails on the array, node i is evaluated alone, as each(i) (which
    also passes what the integrand needs besides the abscissa).
    A HypqError from f is its verdict on these abscissae and propagates; a
    TypeError or ValueError on a lone node, as from a function handle called
    with the wrong number of arguments, raises DomainError.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sample is refused below
            y = np.asarray(f(x), dtype=complex)
        if y.shape != x.shape:
            raise TypeError
    except HypqError:
        raise
    except (TypeError, ValueError):
        try:
            y = np.array([complex(each(i)) for i in range(x.size)])
        except HypqError:
            raise
        except (TypeError, ValueError) as e:
            raise DomainError(
                f"integrand fails on a single abscissa, as a function of the wrong arity does: {e}"
            ) from e
    if not np.isfinite(y).all():
        bad = np.flatnonzero(~np.isfinite(y))[0]
        raise NonFiniteSampleError(float(x[bad]))
    return y


def _gk_batch(
    f, lo: np.ndarray, hi: np.ndarray, own: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and their error estimates for a batch of panels.

    A panel's estimate is min(|K15 - G7|, max(decay, rounding)).  With E1,
    E2, E3 the magnitudes of the coefficient pairs (a_9, a_10), (a_11, a_12),
    (a_13, a_14) of the interpolant of the Kronrod values, each times the
    half width, and r = max(E2/E1, E3/E2), decay is 10 E3 r^3 when r <= 1/4
    (the coefficients fall geometrically, so K15 has converged) and |K15 -
    G7| otherwise; rounding is 50 eps times the K15 integral of |f|.  So the
    estimate never exceeds |K15 - G7| and never falls below the rounding
    floor unless |K15 - G7| does.

    Panel i belongs to integral own[i]; f(x, k) is called with at most
    _CALL_NODES abscissae x at a time, k holding each node's integral.
    """
    val = np.empty(lo.size, dtype=complex)
    err = np.empty(lo.size)
    step = _CALL_NODES // _K_NODES.size
    for i in range(0, lo.size, step):
        part = slice(i, i + step)
        mid = 0.5 * (lo[part] + hi[part])
        half = 0.5 * (hi[part] - lo[part])
        x = mid[:, None] + half[:, None] * _K_NODES[None, :]
        xs, k = x.ravel(), np.repeat(own[part], _K_NODES.size)
        y = _eval_batch(
            lambda v: f(v, k), xs, lambda j: f(float(xs[j]), int(k[j]))
        ).reshape(x.shape)
        kg = y @ _KG_WEIGHTS
        val[part] = half * kg[:, 0]
        kg_err = half * np.abs(kg[:, 0] - kg[:, 1])
        coef = np.abs(kg[:, 2:])
        e1, e2, e3 = (half * np.hypot(coef[:, j], coef[:, j + 1]) for j in (0, 2, 4))
        # 0/0, inf/inf and overflowing r^3 all read as no decay
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.maximum(e2 / e1, e3 / e2)
            decay = np.where(r <= _DECAY_RATIO, _DECAY_SAFETY * e3 * r**3, kg_err)
        floor = _ROUNDING * half * (np.abs(y) @ _K_WEIGHTS)
        err[part] = np.minimum(kg_err, np.maximum(decay, floor))
    return val, err


def _fsum_by_integral(out: np.ndarray, own: np.ndarray, val: np.ndarray) -> None:
    """out[k] = compensated sum of the panel values val[own == k], for each k in own;
    GammaOverflowError where a sum is past the double range."""
    order = np.argsort(own)
    own = own[order]
    re, im = val.real[order].tolist(), val.imag[order].tolist()
    cuts = (np.flatnonzero(own[1:] != own[:-1]) + 1).tolist()
    for i, j in zip([0] + cuts, cuts + [own.size]):
        try:
            total = complex(math.fsum(re[i:j]), math.fsum(im[i:j]))
        except (OverflowError, ValueError):  # ValueError: inf - inf among the panels
            total = complex(math.inf)
        out[own[i]] = _finite(total, "an integral over {} panels is past the double range", j - i)


def _tail_panels(length, w0):
    """First-round panels of widths w0, 2 w0, 4 w0, ... over a tail: as many
    as fit its length, at least one (none for a length of 0).  The count
    floor(log2(1 + length/w0)) is read exactly off the binary exponent."""
    return np.maximum(np.frexp(1.0 + length / w0)[1] - 1, length > 0.0)


def _first_panels(a, b, c0, c1, w0, max_nodes: float):
    """First-round panels of integrals over [a[k], b[k]] with cores [c0[k], c1[k]].

    Each core is cut into equal panels at most w0[k] wide; beyond it the
    panels are w0[k], 2 w0[k], 4 w0[k], ... wide (_tail_panels), the last
    one reaching a[k] or b[k].  Returns the panel edges lo, hi in integral
    order and the integral of each panel.  A first round of more than
    max_nodes nodes over all the integrals is refused before it is laid out.
    """
    span = c1 - c0
    with np.errstate(over="ignore", invalid="ignore"):  # counts past the double range are refused
        n_c = np.ceil(span / w0)
        n_l, n_r = _tail_panels(c0 - a, w0), _tail_panels(b - c1, w0)
        n = _K_NODES.size * (n_c + n_l + n_r).sum()  # NaN if any count is
    if not n <= max_nodes:
        raise BudgetExceededError(math.nan, math.inf, n, f"first round of {n:.3g} nodes refused")
    step = span / np.maximum(n_c, 1.0)
    n_c = n_c.astype(np.int64)
    ne = n_l + n_c + n_r + 1  # edges per integral
    first = np.cumsum(ne) - ne
    own = np.repeat(np.arange(a.size), ne)
    # edge t, counted from the core's left end: t step into the core of n_c
    # panels, w0 (2^|t| - 1) before it and w0 (2^(t - n_c) - 1) past it
    t, n_c, w0 = np.arange(own.size) - (first + n_l)[own], n_c[own], w0[own]
    right = t >= n_c
    grow = np.ldexp(w0, np.where(right, t - n_c, -t)) - w0
    x = np.where(right, c1[own] + grow, np.where(t <= 0, c0[own] - grow, c0[own] + t * step[own]))
    x[first] = a
    x[first + ne - 1] = b
    same = own[1:] == own[:-1]  # two edges of one integral bound a panel
    return x[:-1][same], x[1:][same], own[1:][same]


def _adaptive_many(
    f,
    a,
    b,
    core_lo,
    core_hi,
    spec: QuadSpec,
    freq_hint: float,
    m: int,
    max_panel: float = math.inf,
) -> np.ndarray:
    """Integrals over [a[k], b[k]] of x -> f(x, k) for k = 0, ..., m-1, advanced together.

    ``a``, ``b``, ``core_lo`` and ``core_hi`` are scalars or length-m arrays;
    [core_lo[k], core_hi[k]] (clipped to the interval, possibly a point) is
    the part of integral k that is not tail.  The first round lays equal
    panels over the core, at most min(width/8, max_panel, one period
    2 pi/freq_hint) wide, and panels of doubling width through the tails out
    to the cut, so padding the cut costs O(log) panels.  Every integral then
    runs its own rounds: its own tolerance test, splits, round cap and node
    budget, so its value is the one a lone call (_adaptive, m = 1) gives.
    A first round of more than max(spec.max_nodes, _CALL_NODES) nodes over
    all m integrals is refused before it is laid out.
    """
    a = np.full(m, a, dtype=float)
    b = np.full(m, b, dtype=float)
    if not (b > a).all():
        raise DomainError("empty integration interval")
    c0 = np.minimum(np.maximum(core_lo, a), b)
    c1 = np.minimum(np.maximum(core_hi, c0), b)
    w0 = np.minimum((b - a) / 8.0, max_panel)
    if freq_hint > 0.0:
        w0 = np.minimum(w0, 2.0 * math.pi / freq_hint)
    lo, hi, own = _first_panels(a, b, c0, c1, w0, max(spec.max_nodes, _CALL_NODES))
    return _advance(f, lo, hi, own, spec, m)


def _advance(f, lo, hi, own, spec: QuadSpec, size: int) -> np.ndarray:
    """The values of integrals 0, ..., size-1 of _adaptive_many, run to the
    end from the first-round panels [lo, hi] of integral own.

    An integral still above its tolerance after _MAX_ROUNDS splitting rounds
    raises NonConvergenceError rather than returning its partial sum.
    """
    out = np.empty(size, dtype=complex)
    val, err = _gk_batch(f, lo, hi, own)
    used = _K_NODES.size * np.bincount(own, minlength=size)

    for rounds in range(_MAX_ROUNDS + 1):
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
                return out
        if rounds == _MAX_ROUNDS:
            k = np.flatnonzero(~done)[0]
            raise NonConvergenceError(complex(total[k]), float(total_err[k]), int(used[k]))
        keep = ~(fin | split)
        lo_s, hi_s = lo[split], hi[split]
        mid = 0.5 * (lo_s + hi_s)
        lo2 = np.concatenate([lo_s, mid])
        hi2 = np.concatenate([mid, hi_s])
        own2 = np.concatenate([own[split], own[split]])
        val2, err2 = _gk_batch(f, lo2, hi2, own2)
        used += _K_NODES.size * np.bincount(own2, minlength=size)
        lo = np.concatenate([lo[keep], lo2])
        hi = np.concatenate([hi[keep], hi2])
        own = np.concatenate([own[keep], own2])
        val = np.concatenate([val[keep], val2])
        err = np.concatenate([err[keep], err2])


def _adaptive(
    f,
    a: float,
    b: float,
    core_lo: float,
    core_hi: float,
    spec: QuadSpec,
    freq_hint: float,
    max_panel: float = math.inf,
) -> complex:
    """One adaptive Gauss-Kronrod integral of f over [a, b], with core [core_lo, core_hi]:
    _adaptive_many for the one integral."""
    return complex(
        _adaptive_many(lambda x, k: f(x), a, b, core_lo, core_hi, spec, freq_hint, 1, max_panel)[0]
    )


def _tail(q: QuadSpec) -> float:
    """Envelope exponent at which tails are cut: safety * (-ln(abs_tol/10))."""
    return q.truncation_safety * (-math.log(q.abs_tol / 10.0))


def _line_bounds(d: DecayProfile, s: QuadSpec) -> tuple[float, ...]:
    """integrate_line's cut interval, center -+ _tail / rate, and its core,
    where the declared envelope is still above abs_tol/10: center -+
    ln(10/abs_tol) / rate."""
    cut, depth = _tail(s), _tail(s) / s.truncation_safety
    return tuple(d.center + x / rate for x in (cut, depth) for rate in (-d.rate_neg, d.rate_pos))


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
    max(abs_tol, rel_tol * |I|).  A panel's error is |K15 - G7|, or less
    where the Legendre coefficients of its Kronrod values decay fast enough
    to show that K15 has converged (see the module docstring); the estimate
    is never above |K15 - G7|, nor below the rounding of the panel's sum
    unless |K15 - G7| is.  A rate of math.inf gives L = 0, so the
    interval ends at ``center`` on that side (a half-line integral).  The
    first panels are uniform over the core L / truncation_safety either side
    of the center, at most one period 2*pi/freq_hint wide when ``freq_hint``
    > 0, and double in width through the rest of each tail.  ``f`` should
    accept a numpy array of abscissae, of at most 8,190 nodes per call
    (scalar-only callables are mapped, slowly).  An integral that misses its
    tolerance raises BudgetExceededError (node budget spent, or a first round
    over it) or NonConvergenceError (60 splitting rounds spent), each
    carrying the estimate and its bound.
    """
    return _adaptive(f, *_line_bounds(d, s), s, freq_hint)


def integrate_plane(
    f: Callable,
    d1: DecayProfile,
    d2: DecayProfile,
    s: QuadSpec = QuadSpec(),
    freq_hint1: float = 0.0,
    freq_hint2: float = 0.0,
) -> complex:
    """Iterated line integral of f(y1, y2) with per-axis truncation.

    The tolerance is split evenly between the axes; each axis is cut and
    laid out in first panels as integrate_line does it.  The outer (y2) rule
    is evaluated on arrays of abscissae, and the inner (y1) integrals of one
    such array are advanced together: each keeps its own tolerance test,
    splits and node budget at the split tolerance, so it gives the value a
    separate integrate_line call would.  ``f`` should accept two numpy arrays
    of equal shape, of at most 8,190 nodes per call (scalar-only callables
    are mapped, slowly).
    """
    inner_spec = s.split()
    bounds = _line_bounds(d1, inner_spec)

    def outer(y2):
        # 1-d even for the scalar y2 of an f failing on scalars, so f's error surfaces
        y2 = np.asarray(y2, dtype=float).ravel()
        return _adaptive_many(lambda y1, k: f(y1, y2[k]), *bounds, inner_spec, freq_hint1, y2.size)

    return integrate_line(outer, d2, s, freq_hint2)
