"""Named, parameterized verifications of the operator and wave-function identities.

Every check returns one CheckResult (or a list for trend checks over a
regulator schedule) carrying both sides, the errors, the tolerance and the
verdict; run_suite executes a selection of registered checks, optionally in
parallel, and always reports results in registry order.  This module is the
regression surface of the repository: the acceptance tests and the command
line ``check``/``sweep`` commands are thin wrappers around it.

A REGISTRY row is data: its function takes only what the row passes, and
run_suite's seed or ``hypq sweep``'s schedule, so each setting is stated
once (check body, row or derived.py); CheckResult.judge (``--tol``) re-judges.

The eigen rows (beta, eigen_n1, eigen_n2, the scalar-product chain, the
inner dual construction and the gamma and relativistic exchange relations,
qlambda) share two assemblies, _plane_wave_records and _pair_eigen_record;
the trend rows share _trend.  Every identity row is judged on its relative
error, abs_err <= tol * max(|lhs|, |rhs|); representation_equivalence
states its own scale, max(1, |psi_hr|), and a deviation bound's scale is 1.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .derived import derived_threshold
from .errors import DomainError, UnknownCheckError
from .kernels import (
    Coupling,
    KernelFamily,
    kernel_hatK,
    kernel_K,
    kernel_Kg,
    measure_relativistic,
)
from .operators import (
    Envelope,
    FunctionHandle,
    OperatorSpec,
    _Ops,
    apply_Lambda,
    apply_Q,
    factored_pair_handle,
    plane_wave,
    qq_convolution_kernel,
)
from .quad import DecayProfile, QuadSpec, _real, integrate_line, integrate_plane
from .special import Periods, complex_gamma, double_sine
from .wavefn import (
    PositionPoint,
    SpectralPoint,
    dual_difference_residual,
    momentum_residual,
    psi_asymptotic,
    psi_hr,
    psi_mb,
    schrodinger_residual,
)

__all__ = [
    "CheckResult",
    "RegSchedule",
    "check_beta",
    "check_reduction",
    "check_qq_commutativity",
    "check_g1_determinant_route",
    "check_scalar_product_chain",
    "check_delta_sequence",
    "check_orthogonality_coefficient",
    "run_suite",
    "registry_names",
    "REGISTRY",
]

HYP = KernelFamily.HYPERBOLIC
GAM = KernelFamily.GAMMA
REL = KernelFamily.RELATIVISTIC

_PERIODS = Periods(1.0, math.sqrt(2.0))  # the periods of the relativistic checks


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """One verified identity instance.

    ``scale`` is what the tolerance is relative to: the record passes while
    abs_err <= tolerance * scale.  It is set by the constructors below and
    is not serialized.
    """

    check_name: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool
    runtime_ms: float = 0.0
    scale: float = field(default=1.0, repr=False)

    def judge(self, tol: float) -> "CheckResult":
        """Set the tolerance and the verdict abs_err <= tol * scale."""
        self.tolerance = tol
        self.passed = bool(self.abs_err <= tol * self.scale)
        return self

    @classmethod
    def compare(
        cls, name: str, params: dict, lhs: complex, rhs: complex, tol: float,
        scale: float | None = None,
    ) -> "CheckResult":
        """lhs against rhs, at the scale max(|lhs|, |rhs|) unless one is stated."""
        lhs = complex(lhs)
        rhs = complex(rhs)
        abs_err = abs(lhs - rhs)
        size = max(abs(lhs), abs(rhs))
        return cls(
            name, params, lhs, rhs, abs_err, abs_err / max(size, 1e-300), tol, False,
            scale=size if scale is None else scale,
        ).judge(tol)

    @classmethod
    def bound(
        cls, name: str, params: dict, value: float, tol: float, passed: bool | None = None
    ) -> "CheckResult":
        """A nonnegative deviation that must stay within tol (or meet ``passed``)."""
        r = cls(name, params, complex(value), 0.0, float(value), float(value), tol, False).judge(tol)
        if passed is not None:
            r.passed = bool(passed)
        return r


def _reals(seq, what: str) -> tuple:
    """seq as a tuple of floats; DomainError if it is not a sequence of real numbers."""
    try:
        items = tuple(seq)
    except TypeError:
        raise DomainError(f"{what}s must be a sequence of numbers, got {seq!r}") from None
    return tuple(_real(v, what) for v in items)


@dataclass(frozen=True)
class RegSchedule:
    """Paired regulator schedules for limit checks.

    ``epsilons`` descend while ``regulators`` ascend toward the limit; the
    inner (epsilon) limit is conceptually taken first, so each regulator
    value is evaluated with its own (smaller) epsilon.  A single epsilon is
    broadcast across the whole regulator schedule.
    """

    epsilons: tuple
    regulators: tuple

    def __post_init__(self):
        eps = _reals(self.epsilons, "epsilon")
        regs = _reals(self.regulators, "regulator")
        if not all(v > 0 for v in eps + regs):
            raise DomainError("schedule entries must be positive")
        if list(eps) != sorted(eps, reverse=True):
            raise DomainError("epsilons must descend")
        if list(regs) != sorted(regs):
            raise DomainError("regulators must ascend")
        if len(eps) not in (1, len(regs)):
            raise DomainError("epsilons must be scalar-like or match regulators")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "regulators", regs)

    def steps(self):
        if len(self.epsilons) == 1:
            return [(self.epsilons[0], r) for r in self.regulators]
        return list(zip(self.epsilons, self.regulators))


def _trend(name: str, steps, deviation, final_tol: float) -> list[CheckResult]:
    """Records of deviation(p) over the params dicts ``steps``, which must
    strictly decrease: each step's tolerance is the deviation before it (inf
    first), the last's also final_tol."""
    out, prev = [], math.inf
    for i, p in enumerate(steps):
        d = deviation(p)
        tol = min(prev, final_tol) if i == len(steps) - 1 else prev
        out.append(CheckResult.bound(name, p, d, tol, d < tol))
        prev = d
    return out


# ---------------------------------------------------------------------------
# the two eigen relations
# ---------------------------------------------------------------------------


def _plane_wave_records(
    name: str, spec: OperatorSpec, cases, q: QuadSpec, tol: float
) -> list[CheckResult]:
    """[Q1 e_l](at) = q(spectral, l) e_l(at) for the plane wave e_l, per case (l, at, params)."""
    ops = _Ops(spec.family, spec.dual, spec.coupling)
    out = []
    for label, at, params in cases:
        pw = plane_wave(label, spec.family, spec.coupling)
        lhs = apply_Q(spec, pw, at, q)
        rhs = ops.eigen(spec.spectral, label) * complex(pw.fn(at))
        out.append(CheckResult.compare(name, params, lhs, rhs, tol))
    return out


def _pair_eigen_record(
    name: str, params: dict, spec: OperatorSpec, sp: SpectralPoint, at, q: QuadSpec, tol: float
) -> CheckResult:
    """[Q2 h](at) = 2 q(spectral, l1) q(spectral, l2) h(at) for the factored
    eigenfunction h of labels sp and the operator's own kernel coupling."""
    ops = _Ops(spec.family, spec.dual, spec.coupling)
    h = factored_pair_handle(spec.family, ops.kernel_coupling, sp.plus, sp.delta, q)
    lhs = apply_Q(spec, h, at, q)
    eig1, eig2 = (ops.eigen(spec.spectral, label) for label in (sp.lambda1, sp.lambda2))
    return CheckResult.compare(name, params, lhs, 2.0 * eig1 * eig2 * complex(h.fn(*at)), tol)


# ---------------------------------------------------------------------------
# beta integrals
# ---------------------------------------------------------------------------


def check_beta(family: KernelFamily, x_or_lam: float, c: Coupling, tol: float = 1e-7) -> CheckResult:
    """Fourier transform of the family kernel against its closed form: the
    plane-wave eigenvalue of the one-variable operator at label 0, point 0."""
    family = KernelFamily(family)
    # dual but for the hyperbolic family, so that c is the kernel's own coupling
    spec = OperatorSpec(family, 1, family is not HYP, c, x_or_lam)
    params = {"family": family.value, "arg": x_or_lam, "g": c.g}
    return _plane_wave_records(f"beta_{family.value}", spec, [(0.0, 0.0, params)], QuadSpec(), tol)[0]


# ---------------------------------------------------------------------------
# reductions between the families
# ---------------------------------------------------------------------------

# registry name -> (kind, parameters, omega2 schedule toward the limit):
# descending omega2 for the small-period reductions, ascending for S2_to_gamma
_REDUCTIONS = {
    "reduction_Kg_to_hatK": ("Kg_to_hatK", {"g": 1.2, "omega1": 1.0, "lam": 0.5}, (0.2, 0.1, 0.05)),
    "reduction_Kgstar_to_K": ("Kgstar_to_K", {"g": 0.9, "omega1": 1.0, "lam": 0.7}, (0.2, 0.1, 0.05)),
    "reduction_beta_1": ("beta_reduction_1", {"g": 0.8, "omega1": 1.0, "z": 0.35}, (0.2, 0.1, 0.05)),
    "reduction_beta_2": ("beta_reduction_2", {"g": 0.8, "omega1": 1.0, "x": 0.6}, (0.2, 0.1, 0.05)),
    "reduction_S2_to_gamma": ("S2_to_gamma", {"g": 1.0, "omega1": 1.0, "u": 0.6}, (10.0, 20.0, 40.0)),
}
_REDUCTION_KINDS = {kind: (defaults, sched) for kind, defaults, sched in _REDUCTIONS.values()}


def _reduction_deviation(which: str, params: dict) -> float:
    g, omega2 = params["g"], params["omega2"]
    w1 = params["omega1"]
    if which == "Kg_to_hatK":
        lam = params["lam"]
        c = Coupling(g * omega2, Periods(w1, omega2))
        val = kernel_Kg(lam * omega2, c)
        target = (
            2.0 ** (1.0 - g)
            * complex_gamma(g)
            / (2.0 * math.pi)
            * (2.0 * math.pi * omega2 / w1) ** (g - 1.0)
            * kernel_hatK(2.0 * lam, Coupling(g))
        )
        return abs(val / target - 1.0)
    if which == "Kgstar_to_K":
        # dual-coupling kernel at fixed argument; the limit constant is 2^-g
        # (verified numerically and by the inversion/functional-equation route)
        lam = params["lam"]
        c = Coupling(w1 + omega2 - g * omega2, Periods(w1, omega2))
        val = kernel_Kg(lam, c)
        target = 2.0 ** (-g) * kernel_K(math.pi * lam / w1, Coupling(g))
        return abs(val / target - 1.0)
    if which == "beta_reduction_1":
        z = params["z"]
        p = Periods(w1, omega2)
        half = 0.5 * p.total
        num = double_sine(half + 1j * z + 0.5 * g * omega2, p)
        den = double_sine(half + 1j * z - 0.5 * g * omega2, p)
        target = 2.0 ** (-g) * kernel_K(math.pi * z / w1, Coupling(g))
        return abs((num / den) / target - 1.0)
    if which == "beta_reduction_2":
        x = params["x"]
        p = Periods(w1, omega2)
        val = double_sine(x * omega2, p)
        target = (
            math.sqrt(2.0 * math.pi)
            * (2.0 * math.pi * omega2 / w1) ** (0.5 - x)
            / complex_gamma(x)
        )
        return abs(val / target - 1.0)
    u = params["u"]  # S2_to_gamma
    p = Periods(w1, omega2)
    est = (
        math.sqrt(2.0 * math.pi)
        * (2.0 * math.pi * w1 / omega2) ** (0.5 - u / w1)
        / double_sine(u, p)
    )
    return abs(est / complex_gamma(u / w1) - 1.0)


def check_reduction(which: str, omega2_schedule) -> list[CheckResult]:
    """Deviation trend of one family reduction along its period schedule.

    Schedules run toward the limit, in the direction of the kind's schedule
    in _REDUCTIONS.
    """
    if which not in _REDUCTION_KINDS:
        raise UnknownCheckError(which)
    params, default_sched = _REDUCTION_KINDS[which]
    sched = [float(w) for w in omega2_schedule]
    descend = default_sched[0] > default_sched[-1]
    if sched != sorted(sched, reverse=descend):
        direction = "descend" if descend else "ascend"
        raise DomainError(f"omega2 schedule must {direction} toward the limit")
    steps = [{**params, "omega2": w} for w in sched]
    name = f"reduction_{which}"
    return _trend(name, steps, lambda p: _reduction_deviation(which, p), derived_threshold(name))


# ---------------------------------------------------------------------------
# commutativity
# ---------------------------------------------------------------------------


def check_qq_commutativity(
    family: KernelFamily, arity: int, params: dict | None = None
) -> CheckResult:
    """Composed two-operator kernel against itself with spectral arguments swapped."""
    family = KernelFamily(family)
    params = params or {}
    g = params.get("g", 1.0)
    c = Coupling(g, _PERIODS if family is REL else None)
    lam = params.get("lam", 0.4)
    rho = params.get("rho", -0.3)
    tol = 1e-6 if arity == 1 else 1e-5
    endpoints = (0.3, -0.5) if arity == 1 else ((0.3, -0.2), (0.5, -0.6))
    spec = OperatorSpec(family, arity, family is not HYP, c, 0.0)
    lhs = qq_convolution_kernel(spec, lam, rho, endpoints, QuadSpec())
    rhs = qq_convolution_kernel(spec, rho, lam, endpoints, QuadSpec())
    return CheckResult.compare(
        f"qq_commutativity_{family.value}_n{arity}",
        {"family": family.value, "arity": arity, "g": g, "lam": lam, "rho": rho},
        lhs,
        rhs,
        tol,
    )


# ---------------------------------------------------------------------------
# rationalized determinant route at g = 1
# ---------------------------------------------------------------------------


def _rational_weight_integral(a: float, b: float, p: complex, g: float, q: QuadSpec) -> complex:
    """int dw s^p ((a+s)(b+s))^(-g) over the real line, s = e^w, for Re p = g:
    the integrand then decays at rate g both ways."""

    def f(w):
        s = np.exp(np.asarray(w, dtype=float))
        return s**p / ((a + s) * (b + s)) ** g

    return integrate_line(f, DecayProfile(g, g), q, freq_hint=abs(complex(p).imag))


def _andreief_det(a_pair, b_pair, expo: complex, q: QuadSpec) -> complex:
    """2 det [int_0^inf s^expo / ((a_i+s)(s+b_j)) ds]_(i,j): by the Cauchy
    determinant identity and the Andreief formula, the twofold integral over
    s1, s2 of (s1 s2)^expo times the two Cauchy determinants in a and b."""
    (m11, m12), (m21, m22) = (
        [_rational_weight_integral(a, b, expo + 1.0, 1.0, q) for b in b_pair] for a in a_pair
    )
    return 2.0 * (m11 * m22 - m12 * m21)


def q2_kernel_det_route(
    x_pair, z_pair, lam: float, rho: float, q: QuadSpec
) -> complex:
    """The g = 1, two-variable composed kernel via the rationalized determinant.

    Positions map to a_i = e^(2 x_i), b_i = e^(2 z_i); the twofold integral
    factorizes into 2 det of one-dimensional rational integrals
    (_andreief_det).
    """
    x1, x2 = x_pair
    z1, z2 = z_pair
    a1, a2 = math.exp(2.0 * x1), math.exp(2.0 * x2)
    b1, b2 = math.exp(2.0 * z1), math.exp(2.0 * z2)
    pref = (
        (abs(b1 - b2) / (2.0 * math.sqrt(b1 * b2))) ** 2
        * (a1 * a2) ** (0.5j * lam + 1.0)
        * (b1 * b2) ** (-0.5j * rho + 1.0)
        * 16.0
        / ((a1 - a2) * (b1 - b2))
    )
    return complex(pref * _andreief_det((a1, a2), (b1, b2), 0.5j * (rho - lam), q))


def check_g1_determinant_route() -> list[CheckResult]:
    """Cauchy determinant algebra, the one-variable rational identity, and the
    Andreief factorization of the twofold rational integral at unit coupling."""
    lam, z_pair, t_pair, q, tol = 0.4, (1.5, 0.7), (0.9, 0.3), QuadSpec(), 1e-7
    out = []
    # (a) Cauchy determinant identity at a rational sample point
    z1, z2, s1, s2 = 1.0, 2.0, 3.0, 5.0
    lhs = (z1 - z2) * (s1 - s2) / ((z1 + s1) * (z1 + s2) * (z2 + s1) * (z2 + s2))
    rhs = 1.0 / ((z1 + s1) * (z2 + s2)) - 1.0 / ((z1 + s2) * (z2 + s1))
    out.append(
        CheckResult.compare(
            "det_route_cauchy", {"z": (z1, z2), "s": (s1, s2)}, lhs, rhs, 1e-12
        )
    )

    # (b) one-variable rational identity for general coupling
    g = 0.8
    zz, tt = 1.5, 0.7
    lhs = zz ** (1j * lam) * _rational_weight_integral(zz, tt, g - 1j * lam, g, q)
    rhs = tt ** (-1j * lam) * _rational_weight_integral(zz, tt, g + 1j * lam, g, q)
    out.append(
        CheckResult.compare(
            "det_route_n1_rational",
            {"g": g, "lam": lam, "z": zz, "t": tt},
            lhs,
            rhs,
            tol,
        )
    )

    # (c) Andreief: twofold integral = 2 det of one-dimensional integrals
    a1, a2 = z_pair
    b1, b2 = t_pair
    expo = -1j * lam

    def f2(w1, w2):
        s1 = np.exp(np.asarray(w1, dtype=float))
        s2 = np.exp(np.asarray(w2, dtype=float))
        cross1 = 1.0 / ((a1 + s1) * (a2 + s2)) - 1.0 / ((a1 + s2) * (a2 + s1))
        cross2 = 1.0 / ((b1 + s1) * (b2 + s2)) - 1.0 / ((b1 + s2) * (b2 + s1))
        return (s1 * s2) ** (1.0 + expo) * cross1 * cross2

    twofold = integrate_plane(
        f2, DecayProfile(1.0, 1.0), DecayProfile(1.0, 1.0), q, abs(lam), abs(lam)
    )
    out.append(
        CheckResult.compare(
            "det_route_andreief",
            {"lam": lam, "z": z_pair, "t": t_pair},
            twofold,
            _andreief_det(z_pair, t_pair, expo, q),
            tol,
        )
    )

    # (d) mutual agreement with the direct two-variable composed kernel
    x_pair = (0.2, -0.35)
    zz_pair = (0.45, -0.15)
    rho = -0.3
    direct = qq_convolution_kernel(
        OperatorSpec(HYP, 2, False, Coupling(1.0), 0.0), lam, rho, (x_pair, zz_pair), q
    )
    viadet = q2_kernel_det_route(x_pair, zz_pair, lam, rho, q)
    out.append(
        CheckResult.compare(
            "det_route_vs_direct",
            {"x": x_pair, "z": zz_pair, "lam": lam, "rho": rho, "g": 1.0},
            direct,
            viadet,
            1e-6,
        )
    )
    return out


# ---------------------------------------------------------------------------
# regularized scalar-product chain
# ---------------------------------------------------------------------------


def check_scalar_product_chain(family: KernelFamily) -> list[CheckResult]:
    """The regularized steps of the scalar-product chain, pointwise: the two
    eigen relations at the shifted spectral values lam_j' = lam_j - i strip + i eps.

    Step 1: the damped kernel insertion at the auxiliary point t0 completes
    the raising operator to Q2(lam1'), so it is the pair relation
    [Q2(lam1') h](t1, t0) = 2 q(lam1', rho1) q(lam1', rho2) h(t1, t0), h the
    factored eigenfunction of labels rhos.  Steps 2 and 3 are the plane-wave
    relation [Q1(lam2') e_rho](t1) = q(lam2', rho) e_rho(t1) at rho = rho1,
    rho2.  All steps are pre-limit identities at finite (t0, eps); no
    distributional limit is asserted.
    """
    family = KernelFamily(family)
    t0, eps, t1, q = 4.0, 0.1, 0.3, QuadSpec(rel_tol=1e-8, abs_tol=1e-9)
    # coupling, the chain's two outer points, the two labels (gamma: positions), tolerance
    c, lams, rhos, tol = {
        HYP: (Coupling(1.0), SpectralPoint(0.4, -0.3), SpectralPoint(0.3, -0.2), 1e-5),
        GAM: (Coupling(1.0), SpectralPoint(0.4, 0.1), SpectralPoint(0.3, -0.2), 1e-5),
        REL: (Coupling(0.9, _PERIODS), SpectralPoint(0.3, 0.1), SpectralPoint(0.25, -0.15), 1e-4),
    }[family]
    dual = family is GAM
    name = f"scalar_chain_{family.value}"
    shift = 1j * _Ops(family, dual, c).strip
    base_params = {
        "family": family.value,
        "g": c.g,
        "eps": eps,
        "t1": t1,
        "t0": t0,
    }
    spec2 = OperatorSpec(family, 2, dual, c, lams.lambda1 - shift + 1j * eps)
    params2 = {**base_params, "step": "two_variable", "lam1": lams.lambda1.real}
    spec1 = OperatorSpec(family, 1, dual, c, lams.lambda2 - shift + 1j * eps)
    cases = [
        (label, t1, {**base_params, "step": step, "lam2": lams.lambda2.real})
        for step, label in (("one_variable_first", rhos.lambda1), ("one_variable_second", rhos.lambda2))
    ]
    return [
        _pair_eigen_record(name, params2, spec2, rhos, (t1, t0), q, tol),
        *_plane_wave_records(name, spec1, cases, q, tol),
    ]


# ---------------------------------------------------------------------------
# delta sequences
# ---------------------------------------------------------------------------


def _gauss(x):
    return np.exp(-(np.asarray(x, dtype=float) ** 2))


def _x_gauss(x):
    return np.asarray(x, dtype=float) * _gauss(x)


def _x2_gauss(x):
    return np.asarray(x, dtype=float) ** 2 * _gauss(x)


# (x1 - x2)^2 e^(-x1^2 - x2^2) = sum coef f1(x1) f2(x2) over these separable terms
_VANDERMONDE_GAUSS = ((1.0, _x2_gauss, _gauss), (-2.0, _x_gauss, _x_gauss), (1.0, _gauss, _x2_gauss))


def _regulated_line(h, ys, g, eps, reg, q):
    """The one-particle integral of every regulated delta sequence,

    int h(x) reg^(1-g) e^(i reg (x - c)) prod_{y in ys} (x - y - i eps)^(-g) dx,

    c = mean(ys), with per-factor principal powers (a plain reciprocal at g = 1).
    """
    c = sum(ys) / len(ys)

    def integrand(x):
        x = np.asarray(x, dtype=float)
        val = h(x) * reg ** (1.0 - g) * np.exp(1j * reg * (x - c))
        for y in ys:
            fac = x - y - 1j * eps
            val = val / fac if g == 1.0 else val * fac ** (-g)
        return val

    return integrate_line(integrand, DecayProfile(4.0, 4.0, center=c), q, freq_hint=reg)


def check_delta_sequence(
    n: int, power_g: float, schedule: RegSchedule | None = None
) -> list[CheckResult]:
    """Weak-limit checks of the regularized delta sequences at finite regulators.

    n = 1, power 1:  e^(iL(x-y))/(x-y-ie)            -> 2 pi i f(y)
    n = 1, power g:  G^(1-g) e^(i(x-y)G)/(x-y-ie)^g  -> (2 pi/Gamma(g)) e^(i pi g/2) f(y)
    n = 2, power 1:  Vandermonde^2-weighted kernel    -> 4 pi^2 [f(y1,y2) + f(y2,y1)]
    n = 2, power g:  G^(2(1-g)) kernel^g              -> (2 pi/Gamma(g))^2 e^(2 pi i g)
                                                        [f(y1,y2)+f(y2,y1)] / |y12|^(2g)
    (the last is the conjecture-level power form, tested numerically only).
    Deviations must decrease along the schedule, final below the pinned
    threshold.

    f(x) = e^(-x^2) at y = 0 for n = 1.  For n = 2, at y = (0.3, -0.3), the
    kernel G^(2(1-g)) e^(iG(x1 + x2 - y1 - y2)) prod_{i,j} (x_i - y_j - ie)^(-g)
    is a product over the particles.  At g = 1 it carries (x1 - x2)^2 and
    f = e^(-x1^2 - x2^2); the power form meets f = (x1 - x2)^2 e^(-x1^2 - x2^2),
    as in the scalar-product assembly, since a plain Gaussian picks up
    non-decaying contributions from the coincident-point pinches.  Either way
    the integrand is the three separable terms _VANDERMONDE_GAUSS, so every
    step is sum coef prod_i J[f_i], J the one regulated line integral
    _regulated_line, taken once per distinct f_i and step.
    """
    q = QuadSpec(rel_tol=1e-8, abs_tol=1e-10)
    g = float(power_g)
    if n == 1:
        ys = (0.0,)
        fixed = {"n": 1, "g": g, "y": ys[0]}
        terms = [(1.0, _gauss)]
        schedule = schedule or RegSchedule((8e-3, 3e-3, 1e-3), (10.0, 20.0, 40.0))
        name = "delta_n1_g1" if g == 1.0 else "delta_n1_general"
        target = (  # times f(0) = 1
            2j * math.pi
            if g == 1.0
            else 2.0 * math.pi / complex_gamma(g) * np.exp(0.5j * math.pi * g)
        )
    elif n == 2:
        ys = (0.3, -0.3)
        fixed = {"n": 2, "g": g, "y": ys}
        terms = _VANDERMONDE_GAUSS
        schedule = schedule or RegSchedule((4e-3, 1.5e-3, 5e-4), (10.0, 20.0, 40.0))
        y1, y2 = ys
        f_terms = [(1.0, _gauss, _gauss)] if g == 1.0 else terms
        sym = complex(sum(c * (f1(y1) * f2(y2) + f1(y2) * f2(y1)) for c, f1, f2 in f_terms))
        if g == 1.0:
            name = "delta_n2_vandermonde"
            target = 4.0 * math.pi**2 * sym
        else:
            name = "delta_n2_power"
            fixed["conjecture"] = True
            target = (
                (2.0 * math.pi / complex_gamma(g)) ** 2
                * np.exp(2j * math.pi * g)
                * sym
                / abs(y1 - y2) ** (2.0 * g)
            )
    else:
        raise DomainError("n must be 1 or 2")
    fns = list(dict.fromkeys(f for _, *fs in terms for f in fs))  # each distinct factor once

    def deviation(p):
        js = {f: _regulated_line(f, ys, g, p["eps"], p["regulator"], q) for f in fns}
        val = sum(c * math.prod(js[f] for f in fs) for c, *fs in terms)
        return abs(val - target) / abs(target)

    steps = [{**fixed, "regulator": reg, "eps": eps} for eps, reg in schedule.steps()]
    return _trend(name, steps, deviation, derived_threshold(name))


# ---------------------------------------------------------------------------
# orthogonality coefficients
# ---------------------------------------------------------------------------


def check_orthogonality_coefficient(family: KernelFamily) -> CheckResult:
    """Closed-form orthogonality coefficient by two independent assemblies.

    For the hyperbolic family: the operator-regularization route (gamma
    factors of second kind, explicit 1/lam12^2 singular factor) against the
    textbook normalization; pure special-function arithmetic, no quadrature.
    """
    family = KernelFamily(family)
    if family is HYP:
        g, d = 1.0, complex(1.0)  # lam12 at (0.5, -0.5)
        gg = complex_gamma(g)
        route_a = (
            2.0 ** (2.0 * g - 3.0)
            / gg**4
            * gg**2
            * complex_gamma(g + 0.5j * d)
            * complex_gamma(g - 0.5j * d)
            * complex_gamma(1.0 + 0.5j * d)
            * complex_gamma(1.0 - 0.5j * d)
            * 16.0
            * (2.0 * math.pi) ** 2
            / d**2
        )
        route_b = (
            2.0 ** (2.0 * g + 1.0)
            * math.pi**2
            / gg**2
            * complex_gamma(g + 0.5j * d)
            * complex_gamma(g - 0.5j * d)
            * complex_gamma(0.5j * d)
            * complex_gamma(-0.5j * d)
        )
        params = {"family": "hyperbolic", "g": g, "lam12": d.real}
    elif family is GAM:
        g, d = 1.0, 1.0  # x12 at the position labels (0.5, -0.5)
        gg = complex_gamma(g)
        # operator-regularization assembly: the (z/sinh z)^2g limit factor and
        # the power-kernel delta constant cancel the gamma factors
        route_a = (
            2.0
            * gg**2
            / (2.0 * math.pi) ** 2
            * np.exp(-2j * math.pi * g)
            * (d / math.sinh(d)) ** (2.0 * g)
            * (2.0 * math.pi) ** 2
            / gg**2
            * np.exp(2j * math.pi * g)
            / abs(d) ** (2.0 * g)
        )
        route_b = 2.0 / math.sinh(abs(d)) ** (2.0 * g)
        params = {"family": "gamma", "g": g, "x12": d}
    else:
        c, d = Coupling(0.9, _PERIODS), 0.8  # lam12 at (0.4, -0.4)
        p = c.require_periods()
        s2g = double_sine(c.g, p)
        # route A through the measure evaluator, route B through four direct
        # double-sine factors
        route_a = 2.0 * p.product**3 * s2g**2 / measure_relativistic(d, c)
        route_b = (
            2.0
            * p.product**3
            * s2g**2
            / (
                double_sine(c.g + 1j * d, p)
                * double_sine(c.g - 1j * d, p)
                * double_sine(1j * d, p)
                * double_sine(-1j * d, p)
            )
        )
        params = {"family": "relativistic", "g": c.g, "lam12": d}
    return CheckResult.compare(
        f"orthogonality_{family.value}", params, route_a, route_b, 1e-9
    )

# ---------------------------------------------------------------------------
# eigenrelations, representation equivalence, exchange relations
# ---------------------------------------------------------------------------


def check_eigen_n1(family: KernelFamily, seed: int = 1234) -> list[CheckResult]:
    """One-variable operator on a plane wave against the closed eigenvalue,
    sampled at several evaluation points (the ratio must also be constant)."""
    family = KernelFamily(family)
    c = Coupling(0.9, _PERIODS) if family is REL else Coupling(1.1)
    lam = 0.7
    label = 0.25
    pts = np.round(np.random.RandomState(seed).uniform(-1.5, 1.5, 5), 3)
    spec = OperatorSpec(family, 1, family is not HYP, c, lam)
    params = {"family": family.value, "g": c.g, "lam": lam, "label": label}
    cases = [(label, float(x0), {**params, "at": float(x0)}) for x0 in pts]
    return _plane_wave_records(f"eigen_n1_{family.value}", spec, cases, QuadSpec(), 1e-8)


def check_eigen_n2(family: KernelFamily) -> CheckResult:
    """Two-variable operator on its factored eigenfunction: value must equal
    2 q(lam, l1) q(lam, l2) times the eigenfunction."""
    family = KernelFamily(family)
    q = QuadSpec(rel_tol=1e-9, abs_tol=1e-11)
    c = Coupling(0.9, _PERIODS) if family is REL else Coupling(1.0)
    # eigenfunction labels (positions for gamma and relativistic), operator
    # spectral argument, evaluation point, tolerance
    sp, lam, at, tol = {
        HYP: (SpectralPoint(0.4, -0.3), 0.55, (0.3, -0.45), 1e-5),
        GAM: (SpectralPoint(0.25, -0.4), 0.5, (0.35, -0.2), 1e-4),
        REL: (SpectralPoint(0.3, -0.25), 0.4, (0.2, -0.3), 1e-4),
    }[family]
    spec = OperatorSpec(family, 2, family is not HYP, c, lam)
    params = {"family": family.value, "g": c.g}
    return _pair_eigen_record(f"eigen_n2_{family.value}", params, spec, sp, at, q, tol)


# relativistic flag -> (check name, psi_hr family, psi_mb family, periods,
# spectral and position centres, couplings, spectral and position gaps, tolerance)
_REPRESENTATION_GRIDS = {
    False: ("representation_equivalence", HYP, GAM, None, (0.3, -0.2),
            (0.7, 1.0, 1.6), (0.5, 1.1, 2.0), (0.4, 1.0, 2.2), 1e-7),
    True: ("representation_equivalence_rel", REL, REL, _PERIODS, (0.1, -0.1),
           (0.8, 1.3), (0.4, 1.0), (0.5, 1.2), 1e-5),
}


def check_representation_equivalence(relativistic: bool) -> list[CheckResult]:
    """Position-side against spectral-side wave function on a parameter grid,
    to a tolerance relative to max(1, |psi_hr|)."""
    name, hr_family, mb_family, periods, (lam_plus, x_plus), gs, dls, dxs, tol = (
        _REPRESENTATION_GRIDS[relativistic]
    )
    out = []
    for g in gs:
        c = Coupling(g, periods)
        for dl in dls:
            for dx in dxs:
                sp = SpectralPoint(lam_plus + dl / 2, lam_plus - dl / 2)
                pp = PositionPoint(x_plus + dx / 2, x_plus - dx / 2)
                a = psi_hr(sp, pp, c, hr_family, QuadSpec())
                b = psi_mb(sp, pp, c, mb_family, QuadSpec())
                params = {"g": g, "dl": dl, "dx": dx}
                out.append(CheckResult.compare(name, params, a, b, tol, max(1.0, abs(a))))
    return out


# family -> (coupling, lam, rho, evaluation point, names of the lam and rho params):
# the gamma and relativistic relations are one-variable, in position labels
_QLAMBDA_POINTS = {
    HYP: (Coupling(1.0), 0.5, 0.2 + 0.5j, (0.3, -0.4), ("lam", "rho")),
    GAM: (Coupling(1.0), 0.3, 0.1 + 0.4j, 0.7, ("x", "y")),
    REL: (Coupling(0.8, _PERIODS), 0.3, 0.1 + 0.3j, 0.45, ("x", "y")),
}


def check_qlambda(family: KernelFamily) -> CheckResult:
    """Exchange relation Q(lam) L(rho') = q(lam, rho') L(rho') Q(lam), rho' = rho - i strip.

    Where the raising operator multiplies by a plane wave (gamma,
    relativistic) it is the plane-wave eigen relation at label rho'; the
    hyperbolic row takes Q2(lam) on the pair of labels (0.1, rho') against
    2 Khat(lam - rho') q(lam, 0.1) L2(rho') on e^(0.1 i t), with q(lam, 0.1)
    read off Q1 at one point.  The envelopes refuse Im(lam - rho) outside
    (-2 strip, 0)."""
    family = KernelFamily(family)
    c, lam, rho, at, (lam_name, rho_name) = _QLAMBDA_POINTS[family]
    q, tol = QuadSpec(), 1e-6
    name = f"qlambda_{family.value}"
    params = {"family": family.value, "g": c.g, lam_name: lam,
              f"{rho_name}_re": rho.real, f"{rho_name}_im": rho.imag}
    rho_s = rho - 1j * _Ops(family, True, c).strip
    if family is not HYP:
        spec = OperatorSpec(family, 1, True, c, lam)
        return _plane_wave_records(name, spec, [(rho_s, at, params)], q, tol)[0]
    pair = factored_pair_handle(HYP, c, 0.5 * (0.1 + rho_s), 0.1 - rho_s, q)
    lhs = apply_Q(OperatorSpec(HYP, 2, False, c, lam), pair, at, q)
    pw = plane_wave(0.1, HYP, c)
    r0 = apply_Q(OperatorSpec(HYP, 1, False, c, lam), pw, 0.37, q) / complex(pw.fn(0.37))
    raised = apply_Lambda(OperatorSpec(HYP, 2, False, c, rho_s), pw, at, q)
    return CheckResult.compare(name, params, lhs, 2.0 * kernel_hatK(lam - rho_s, c) * r0 * raised, tol)


def check_dual_construction() -> list[CheckResult]:
    """Wave function assembled through both one-variable dual operators.

    e^(i l2 x2) Q1(l2) applied to [the spectral-side operator's action on the
    plane wave] must reproduce both integral representations.
    """
    c, q, tol = Coupling(1.0), QuadSpec(), 1e-7
    l1, l2 = 0.4, -0.3
    x1, x2 = 0.2, -0.6
    # spectral-side operator action on e^(i x1 gamma), checked pointwise: its
    # eigenvalue q(x2, x1) is K(x2 - x1)
    spec_g = OperatorSpec(GAM, 1, True, c, x2)
    (r1,) = _plane_wave_records(
        "dual_construction_inner", spec_g, [(x1, l1, {"x1": x1, "x2": x2, "l1": l1})], q, 1e-10
    )
    # assemble h(y) = K(x2 - y) e^(i l1 y), apply Q1(l2), compare to psi
    def hfn(y):
        return kernel_K(x2 - np.asarray(y, dtype=float), c) * np.exp(1j * l1 * np.asarray(y, dtype=float))

    h = FunctionHandle(hfn, Envelope(c.g, c.g, center=x2, freq=abs(l1)))
    spec_h = OperatorSpec(HYP, 1, False, c, l2)
    val = complex(np.exp(1j * l2 * x2)) * apply_Q(spec_h, h, x1, q)
    sp, pp = SpectralPoint(l1, l2), PositionPoint(x1, x2)
    a = psi_hr(sp, pp, c, HYP, q)
    b = psi_mb(sp, pp, c, GAM, q)
    r2 = CheckResult.compare(
        "dual_construction_vs_hr", {"l": (l1, l2), "x": (x1, x2)}, val, a, tol
    )
    r3 = CheckResult.compare(
        "dual_construction_vs_mb", {"l": (l1, l2), "x": (x1, x2)}, val, b, tol
    )
    return [r1, r2, r3]


# ---------------------------------------------------------------------------
# differential / difference equation residuals and asymptotics
# ---------------------------------------------------------------------------


def _residual_results(name: str, residual, tol: float) -> list[CheckResult]:
    """Equation residuals of the g = 1 wave function at three position points."""
    c = Coupling(1.0)
    sp = SpectralPoint(0.4, -0.3)
    out = []
    for pp in (PositionPoint(0.5, -0.5), PositionPoint(0.9, 0.2), PositionPoint(-0.3, -1.1)):
        r = residual(sp, pp, c, 1e-2, QuadSpec())
        out.append(CheckResult.bound(name, {"g": c.g, "x": (pp.x1, pp.x2), "h": 1e-2}, r, tol))
    return out


def check_schrodinger() -> list[CheckResult]:
    return _residual_results("schrodinger_residual", schrodinger_residual, 1e-4)


def check_momentum() -> list[CheckResult]:
    return _residual_results("momentum_residual", momentum_residual, 1e-6)


def check_dual_difference() -> list[CheckResult]:
    c = Coupling(2.5)
    sp = SpectralPoint(0.4, -0.3)
    pp = PositionPoint(0.2, -0.1)
    res = dual_difference_residual(sp, pp, c, QuadSpec())
    params = {"g": c.g, "lam": (0.4, -0.3), "x": (0.2, -0.1)}
    return [
        CheckResult.bound("dual_difference_momentum", params, res.momentum, 1e-6),
        CheckResult.bound("dual_difference_hamiltonian", params, res.hamiltonian, 1e-5),
    ]


def check_psi_asymptotics() -> list[CheckResult]:
    """Two-plane-wave asymptote: deviation shrinking in the separation."""
    c = Coupling(1.0)
    sp = SpectralPoint(0.5, -0.5)

    def deviation(p):
        pp = PositionPoint(-p["dx"] / 2, p["dx"] / 2)
        asym = psi_asymptotic(sp, pp, c)
        return abs(psi_hr(sp, pp, c, HYP, QuadSpec()) - asym) / abs(asym)

    steps = [{"g": 1.0, "dx": dx} for dx in (6.0, 8.0)]
    return _trend("psi_asymptotic", steps, deviation, derived_threshold("psi_asymptotic_dx8"))


def check_hatK_asymptotic() -> list[CheckResult]:
    """Large-argument kernel asymptote on the gamma side, shrinking deviation."""
    from .kernels import hatK_asymptotic

    c = Coupling(1.5)

    def deviation(p):
        asym = hatK_asymptotic(0.0, p["mu"], c)
        return abs(kernel_hatK(0.0 - p["mu"], c) - asym) / abs(asym)

    steps = [{"g": c.g, "mu": mu} for mu in (40.0, 80.0)]
    return _trend("hatK_asymptotic", steps, deviation, derived_threshold("hatK_asymptotic_mu40"))


def check_q_to_lambda_degeneration() -> list[CheckResult]:
    """Two-variable kernel degenerating to the raising kernel as y2 grows."""
    c = Coupling(1.0)
    lam = 0.4
    x1, x2, y1 = 0.3, -0.2, 0.15

    def deviation(p):
        y2 = p["y2"]
        qker = (
            complex(np.exp(1j * lam * (x1 + x2 - y1 - y2)))
            * kernel_K(x1 - y1, c)
            * kernel_K(x2 - y1, c)
            * kernel_K(x1 - y2, c)
            * kernel_K(x2 - y2, c)
            * math.sinh(abs(y2 - y1)) ** (2.0 * c.g)
        )
        lhs = complex(np.exp(c.g * y1 + 1j * lam * y2)) * qker
        lam_shift = lam - 1j * c.g
        rhs = (
            complex(np.exp(1j * lam_shift * (x1 + x2 - y1)))
            * kernel_K(x1 - y1, c)
            * kernel_K(x2 - y1, c)
        )
        return abs(lhs - rhs) / abs(rhs)

    steps = [{"g": c.g, "y2": y2} for y2 in (6.0, 10.0, 14.0)]
    return _trend("q_to_lambda_degeneration", steps, deviation, derived_threshold("q_to_lambda_y14"))


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------


def _beta_grid(family: KernelFamily, gs, args, tol: float) -> list[CheckResult]:
    """check_beta over couplings g (relativistic: periods (1, sqrt 2)) times arguments."""
    periods = _PERIODS if family is REL else None
    return [check_beta(family, x, Coupling(g, periods), tol=tol) for g in gs for x in args]


# name -> (check function, *fixed parameters); the seed goes to check_eigen_n1,
# the one check that draws random points.  Adding a check is adding a row.
REGISTRY: dict = {
    "beta_hyperbolic": (_beta_grid, HYP, (0.5, 1.0, 1.5), (0.0, 0.7, 2.1), 1e-8),
    "beta_gamma": (_beta_grid, GAM, (0.5, 1.0, 1.5), (0.0, 0.9, 1.7), 1e-8),
    "beta_relativistic": (_beta_grid, REL, (0.8,), (0.0, 0.4, 1.1), 1e-7),
    **{name: (check_reduction, kind, sched) for name, (kind, _, sched) in _REDUCTIONS.items()},
    "qq_n1_hyperbolic": (check_qq_commutativity, HYP, 1, {"g": 1.1, "lam": 0.8, "rho": -0.2}),
    "qq_n1_gamma": (check_qq_commutativity, GAM, 1, {"g": 0.7, "lam": 0.5, "rho": -0.1}),
    "qq_n1_relativistic": (check_qq_commutativity, REL, 1, {"g": 0.8, "lam": 0.5, "rho": -0.1}),
    "qq_n2_hyperbolic_g1": (check_qq_commutativity, HYP, 2, {"g": 1.0}),
    "qq_n2_hyperbolic_g13": (check_qq_commutativity, HYP, 2, {"g": 1.3}),
    "qq_n2_gamma": (check_qq_commutativity, GAM, 2, {"g": 0.9}),
    "qq_n2_relativistic": (check_qq_commutativity, REL, 2, {"g": 0.8}),
    "det_route_g1": (check_g1_determinant_route,),
    "qlambda_hyperbolic": (check_qlambda, HYP),
    "qlambda_gamma": (check_qlambda, GAM),
    "qlambda_relativistic": (check_qlambda, REL),
    "eigen_n1_hyperbolic": (check_eigen_n1, HYP),
    "eigen_n1_gamma": (check_eigen_n1, GAM),
    "eigen_n1_relativistic": (check_eigen_n1, REL),
    "eigen_n2_hyperbolic": (check_eigen_n2, HYP),
    "eigen_n2_gamma": (check_eigen_n2, GAM),
    "eigen_n2_relativistic": (check_eigen_n2, REL),
    "representation_equivalence": (check_representation_equivalence, False),
    "representation_equivalence_rel": (check_representation_equivalence, True),
    "dual_construction": (check_dual_construction,),
    "schrodinger_residual": (check_schrodinger,),
    "momentum_residual": (check_momentum,),
    "dual_difference": (check_dual_difference,),
    "psi_asymptotic": (check_psi_asymptotics,),
    "hatK_asymptotic": (check_hatK_asymptotic,),
    "q_to_lambda_degeneration": (check_q_to_lambda_degeneration,),
    "scalar_chain_hyperbolic": (check_scalar_product_chain, HYP),
    "scalar_chain_gamma": (check_scalar_product_chain, GAM),
    "scalar_chain_relativistic": (check_scalar_product_chain, REL),
    "orthogonality_hyperbolic": (check_orthogonality_coefficient, HYP),
    "orthogonality_gamma": (check_orthogonality_coefficient, GAM),
    "orthogonality_relativistic": (check_orthogonality_coefficient, REL),
    "delta_n1_g1": (check_delta_sequence, 1, 1.0),
    "delta_n1_general": (check_delta_sequence, 1, 1.5),
    "delta_n2_vandermonde": (check_delta_sequence, 2, 1.0),
    "delta_n2_power": (check_delta_sequence, 2, 0.8),
}


def registry_names() -> list[str]:
    return list(REGISTRY.keys())


def _run_named(task: tuple) -> list[CheckResult]:
    name, seed = task
    fn, *args = REGISTRY[name]
    t0 = time.perf_counter()
    res = fn(*args, seed=seed) if fn is check_eigen_n1 else fn(*args)
    dt = (time.perf_counter() - t0) * 1e3
    results = res if isinstance(res, list) else [res]
    for r in results:
        r.runtime_ms = dt / len(results)
    return results


def run_suite(selection=None, jobs: int = 1, seed: int = 1234) -> list[CheckResult]:
    """Execute the named checks and return their results in registry order.

    ``seed`` fixes the random parameter draws of the sampled checks; jobs > 1
    runs checks in separate processes, with the output order and every
    numeric value identical to a sequential run.
    """
    names = registry_names() if selection is None else list(selection)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise UnknownCheckError(f"unknown check names: {unknown}; valid: {registry_names()}")
    if not names:
        return []
    tasks = [(n, seed) for n in names]
    if jobs <= 1:
        groups = [_run_named(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            groups = list(pool.map(_run_named, tasks))
    out: list[CheckResult] = []
    for grp in groups:
        out.extend(grp)
    return out
