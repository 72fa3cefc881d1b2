"""Named, parameterized verifications of the operator and wave-function identities.

Every check returns one CheckResult (or a list for trend checks over a
regulator schedule) carrying both sides, the errors, the tolerance and the
verdict; run_suite executes a selection of registered checks, optionally in
parallel, and always reports results in registry order.  This module is the
regression surface of the repository: the acceptance tests and the command
line ``check``/``sweep`` commands are thin wrappers around it.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .derived import derived_threshold
from .errors import DomainError, UnknownCheckError
from .kernels import (
    Coupling,
    KernelFamily,
    eigenvalue,
    exponent_scale,
    kernel_decay_rate,
    kernel_hatK,
    kernel_K,
    kernel_Kg,
    kg_real_evaluator,
    measure_relativistic,
)
from .operators import (
    Envelope,
    FunctionHandle,
    OperatorSpec,
    apply_Q,
    pair_transform,
    plane_wave,
    qlambda_exchange_check,
    qq_convolution_kernel,
)
from .quad import DecayProfile, QuadSpec, integrate_line, integrate_plane
from .special import Periods, complex_gamma, double_sine
from .wavefn import (
    PositionPoint,
    SpectralPoint,
    dual_difference_residual,
    eigenfunction_handle,
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
    """One verified identity instance."""

    check_name: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool
    runtime_ms: float = 0.0

    @classmethod
    def compare(
        cls, name: str, params: dict, lhs: complex, rhs: complex, tol: float
    ) -> "CheckResult":
        lhs = complex(lhs)
        rhs = complex(rhs)
        abs_err = abs(lhs - rhs)
        rel_err = abs_err / max(abs(lhs), abs(rhs), 1e-300)
        return cls(
            check_name=name,
            params=params,
            lhs=lhs,
            rhs=rhs,
            abs_err=abs_err,
            rel_err=rel_err,
            tolerance=tol,
            passed=bool(abs_err <= tol or rel_err <= tol),
        )

    @classmethod
    def bound(
        cls, name: str, params: dict, value: float, tol: float, passed: bool | None = None
    ) -> "CheckResult":
        """A nonnegative deviation that must stay within tol (or meet ``passed``)."""
        return cls(
            check_name=name,
            params=params,
            lhs=complex(value),
            rhs=0.0,
            abs_err=float(value),
            rel_err=float(value),
            tolerance=tol,
            passed=bool(value <= tol if passed is None else passed),
        )


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
        eps = tuple(float(e) for e in self.epsilons)
        regs = tuple(float(r) for r in self.regulators)
        if any(e <= 0 for e in eps) or any(r <= 0 for r in regs):
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


def _trend_results(name: str, params_list, devs, final_tol: float) -> list[CheckResult]:
    """CheckResults for a deviation sequence that must strictly decrease: each
    record's tolerance is the step before it (inf first), the last also final_tol."""
    out = []
    for i, (p, d) in enumerate(zip(params_list, devs)):
        tol = math.inf if i == 0 else devs[i - 1]
        if i == len(devs) - 1:
            tol = min(tol, final_tol)
        out.append(CheckResult.bound(name, p, d, tol, d < tol))
    return out


# ---------------------------------------------------------------------------
# beta integrals
# ---------------------------------------------------------------------------


def check_beta(
    family: KernelFamily,
    x_or_lam: float,
    c: Coupling,
    q: QuadSpec = QuadSpec(),
    tol: float = 1e-7,
) -> CheckResult:
    """Fourier transform of the family kernel against its closed form."""
    family = KernelFamily(family)
    g = c.g
    if family is HYP:
        lam = float(x_or_lam)
        lhs = integrate_line(
            lambda z: np.exp(1j * lam * z) * kernel_K(z, c),
            DecayProfile(g, g),
            q,
            freq_hint=abs(lam),
        )
        rhs = kernel_hatK(lam, c)
    elif family is GAM:
        z0 = float(x_or_lam)
        from .kernels import _hatK_real_vec

        lhs = integrate_line(
            lambda lam: _hatK_real_vec(lam, g) * np.exp(-1j * lam * z0) / (2.0 * math.pi),
            DecayProfile(0.5 * math.pi, 0.5 * math.pi),
            q,
            freq_hint=abs(z0),
        )
        rhs = complex(kernel_K(z0, c))
    else:
        p = c.require_periods()
        x0 = float(x_or_lam)
        kap = exponent_scale(REL, c)
        rate = kernel_decay_rate(REL, c)
        ev = kg_real_evaluator(c)
        lhs = integrate_line(
            lambda z: np.exp(1j * kap * x0 * z) * ev(z),
            DecayProfile(rate, rate),
            q,
            freq_hint=kap * abs(x0),
        )
        rhs = (
            math.sqrt(p.product)
            * double_sine(c.gstar(), p)
            * kernel_Kg(x0, c.dual())
        )
    return CheckResult.compare(
        f"beta_{family.value}",
        {"family": family.value, "arg": x_or_lam, "g": g},
        lhs,
        rhs,
        tol,
    )


# ---------------------------------------------------------------------------
# reductions between the families
# ---------------------------------------------------------------------------

# registry name -> (kind, default parameters, omega2 schedule toward the limit):
# descending omega2 for the small-period reductions, ascending for S2_to_gamma
_REDUCTIONS = {
    "reduction_Kg_to_hatK": ("Kg_to_hatK", {"g": 1.2, "omega1": 1.0, "lam": 0.5}, (0.2, 0.1, 0.05)),
    "reduction_Kgstar_to_K": ("Kgstar_to_K", {"g": 0.9, "omega1": 1.0, "lam": 0.7}, (0.2, 0.1, 0.05)),
    "reduction_beta_1": ("beta_reduction_1", {"g": 0.8, "omega1": 1.0, "z": 0.35}, (0.2, 0.1, 0.05)),
    "reduction_beta_2": ("beta_reduction_2", {"g": 0.8, "omega1": 1.0, "x": 0.6}, (0.2, 0.1, 0.05)),
    "reduction_S2_to_gamma": ("S2_to_gamma", {"g": 1.0, "omega1": 1.0, "u": 0.6}, (10.0, 20.0, 40.0)),
}
_REDUCTION_KINDS = {kind: (defaults, sched) for kind, defaults, sched in _REDUCTIONS.values()}


def _reduction_deviation(which: str, omega2: float, params: dict) -> float:
    g = params["g"]
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


def check_reduction(
    which: str,
    omega2_schedule,
    params: dict | None = None,
    tol: float | None = None,
) -> list[CheckResult]:
    """Deviation trend of one family reduction along its period schedule.

    Schedules run toward the limit, in the direction of the kind's schedule
    in _REDUCTIONS.
    """
    if which not in _REDUCTION_KINDS:
        raise UnknownCheckError(which)
    defaults, default_sched = _REDUCTION_KINDS[which]
    sched = [float(w) for w in omega2_schedule]
    descend = default_sched[0] > default_sched[-1]
    if sched != sorted(sched, reverse=descend):
        direction = "descend" if descend else "ascend"
        raise DomainError(f"omega2 schedule must {direction} toward the limit")
    params = {**defaults, **(params or {})}
    tol = derived_threshold(f"reduction_{which}") if tol is None else tol
    devs = [_reduction_deviation(which, w, params) for w in sched]
    plist = [{**params, "omega2": w} for w in sched]
    return _trend_results(f"reduction_{which}", plist, devs, tol)


# ---------------------------------------------------------------------------
# commutativity
# ---------------------------------------------------------------------------


def check_qq_commutativity(
    family: KernelFamily,
    arity: int,
    params: dict | None = None,
    q: QuadSpec = QuadSpec(),
    tol: float | None = None,
) -> CheckResult:
    """Composed two-operator kernel against itself with spectral arguments swapped."""
    family = KernelFamily(family)
    params = dict(params or {})
    g = params.get("g", 1.0)
    if family is REL:
        p = Periods(params.get("omega1", 1.0), params.get("omega2", _PERIODS.omega2))
        c = Coupling(g, p)
    else:
        c = Coupling(g)
    lam = params.get("lam", 0.4)
    rho = params.get("rho", -0.3)
    if tol is None:
        tol = 1e-6 if arity == 1 else 1e-5
    if arity == 1:
        endpoints = (params.get("x", 0.3), params.get("z", -0.5))
    else:
        endpoints = (
            tuple(params.get("x2", (0.3, -0.2))),
            tuple(params.get("z2", (0.5, -0.6))),
        )
    spec = OperatorSpec(family, arity, family is not HYP, c, 0.0)
    lhs = qq_convolution_kernel(spec, lam, rho, endpoints, q)
    rhs = qq_convolution_kernel(spec, rho, lam, endpoints, q)
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


def _rational_weight_integral(a: float, b: float, expo: complex, q: QuadSpec) -> complex:
    """int_0^inf s^expo / ((a+s)(s+b)) ds via s = e^w."""

    def f(w):
        w = np.asarray(w, dtype=float)
        s = np.exp(w)
        return s ** (expo + 1.0) / ((a + s) * (s + b))

    return integrate_line(f, DecayProfile(1.0, 1.0), q, freq_hint=abs(complex(expo).imag))


def q2_kernel_det_route(
    x_pair, z_pair, lam: float, rho: float, q: QuadSpec = QuadSpec()
) -> complex:
    """The g = 1, two-variable composed kernel via the rationalized determinant.

    Positions map to a_i = e^(2 x_i), b_i = e^(2 z_i); the twofold integral
    factorizes by the Cauchy determinant identity and the Andreief formula
    into 2 det of one-dimensional rational integrals.
    """
    x1, x2 = x_pair
    z1, z2 = z_pair
    a1, a2 = math.exp(2.0 * x1), math.exp(2.0 * x2)
    b1, b2 = math.exp(2.0 * z1), math.exp(2.0 * z2)
    expo = 0.5j * (rho - lam)
    m = np.array(
        [
            [_rational_weight_integral(a1, b1, expo, q), _rational_weight_integral(a1, b2, expo, q)],
            [_rational_weight_integral(a2, b1, expo, q), _rational_weight_integral(a2, b2, expo, q)],
        ]
    )
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    pref = (
        (abs(b1 - b2) / (2.0 * math.sqrt(b1 * b2))) ** 2
        * (a1 * a2) ** (0.5j * lam + 1.0)
        * (b1 * b2) ** (-0.5j * rho + 1.0)
        * 16.0
        / ((a1 - a2) * (b1 - b2))
    )
    return complex(pref * 2.0 * det)


def check_g1_determinant_route(
    lam: float = 0.4,
    z_pair=(1.5, 0.7),
    t_pair=(0.9, 0.3),
    q: QuadSpec = QuadSpec(),
    tol: float = 1e-7,
) -> list[CheckResult]:
    """Cauchy determinant algebra, the one-variable rational identity, and the
    Andreief factorization of the twofold rational integral at unit coupling."""
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

    def one_sided(sign: float) -> complex:
        def f(w):
            w = np.asarray(w, dtype=float)
            s = np.exp(w)
            return s ** (g - sign * 1j * lam) / ((zz + s) ** g * (tt + s) ** g)

        return integrate_line(f, DecayProfile(g, g), q, freq_hint=abs(lam))

    lhs = zz ** (1j * lam) * one_sided(+1.0)
    rhs = tt ** (-1j * lam) * one_sided(-1.0)
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

    def det_entry(a, b):
        return _rational_weight_integral(a, b, expo, q)

    det = det_entry(a1, b1) * det_entry(a2, b2) - det_entry(a1, b2) * det_entry(a2, b1)

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
            2.0 * det,
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


def check_scalar_product_chain(
    family: KernelFamily,
    lams: SpectralPoint | None = None,
    rhos: SpectralPoint | None = None,
    t0: float = 4.0,
    eps: float = 0.1,
    c: Coupling | None = None,
    q: QuadSpec | None = None,
    t1: float = 0.3,
    tol: float | None = None,
) -> list[CheckResult]:
    """The regularized operator steps of the scalar-product chain, pointwise.

    Step 1: the damped kernel insertion at the auxiliary point t0 completes
    the raising operator to the two-variable operator at a complex-shifted
    spectral argument, so the regularized inner integral must equal
    2 q(shifted, rho1) q(shifted, rho2) Psi_rho(t1, t0).  Steps 2 and 3: the
    remaining integrals are one-variable operator actions on plane waves at
    the second shifted argument, each equal to the closed eigenvalue times
    the plane wave.  All steps are pre-limit identities at finite (t0, eps);
    no distributional limit is asserted.
    """
    family = KernelFamily(family)
    if not (1e-3 <= eps <= 1e-1):
        raise DomainError("eps must lie in [1e-3, 1e-1]")
    if t0 > 12.0:
        raise DomainError("t0 must stay moderate (<= 12)")
    if q is None:
        q = QuadSpec(rel_tol=1e-8, abs_tol=1e-9)
    # coupling, the chain's two outer points, the two labels (gamma: positions), tolerance
    c0, lams0, rhos0, tol0 = {
        HYP: (Coupling(1.0), SpectralPoint(0.4, -0.3), SpectralPoint(0.3, -0.2), 1e-5),
        GAM: (Coupling(1.0), SpectralPoint(0.4, 0.1), SpectralPoint(0.3, -0.2), 1e-5),
        REL: (Coupling(0.9, _PERIODS), SpectralPoint(0.3, 0.1), SpectralPoint(0.25, -0.15), 1e-4),
    }[family]
    c, lams, rhos = c or c0, lams or lams0, rhos or rhos0
    tol = tol0 if tol is None else tol
    shift = {HYP: 1j * c.g, GAM: 0.5j * math.pi, REL: 0.5j * c.g}[family]
    shifted1 = lams.lambda1 - shift + 1j * eps
    halt = eigenfunction_handle(rhos, c, family, q)
    lhs = apply_Q(OperatorSpec(family, 2, family is GAM, c, shifted1), halt, (t1, t0), q)
    if family is GAM:
        rho_pos = PositionPoint(rhos.lambda1.real, rhos.lambda2.real)
        psi = psi_mb(SpectralPoint(t1, t0), rho_pos, c, GAM, q)
    else:
        psi = psi_hr(rhos, PositionPoint(t1, t0), c.dual() if family is REL else c, family, q)
    eig1, eig2 = (eigenvalue(family, shifted1, r, c) for r in (rhos.lambda1, rhos.lambda2))
    rhs = 2.0 * eig1 * eig2 * psi
    base_params = {
        "family": family.value,
        "g": c.g,
        "eps": eps,
        "t1": t1,
        "t0": t0,
    }
    out = [
        CheckResult.compare(
            f"scalar_chain_{family.value}",
            {**base_params, "step": "two_variable", "lam1": complex(lams.lambda1).real},
            lhs,
            rhs,
            tol,
        )
    ]
    # the remaining chain integrals: one-variable actions on plane waves at
    # the second shifted spectral argument
    shifted2 = lams.lambda2 - shift + 1j * eps
    spec1 = OperatorSpec(family, 1, family is GAM, c, shifted2)
    for step, label in (("one_variable_first", rhos.lambda1), ("one_variable_second", rhos.lambda2)):
        pw = plane_wave(label, family, c)
        got = apply_Q(spec1, pw, t1, q)
        want = eigenvalue(family, shifted2, label, c) * complex(pw.fn(t1))
        out.append(
            CheckResult.compare(
                f"scalar_chain_{family.value}",
                {**base_params, "step": step, "lam2": complex(lams.lambda2).real},
                got,
                want,
                tol,
            )
        )
    return out


# ---------------------------------------------------------------------------
# delta sequences
# ---------------------------------------------------------------------------


def _gauss(y0: float = 0.0):
    def f(x):
        return np.exp(-((np.asarray(x, dtype=float) - y0) ** 2))

    return f


def _gauss2():
    def f(x1, x2):
        return np.exp(-np.asarray(x1, dtype=float) ** 2 - np.asarray(x2, dtype=float) ** 2)

    return f


def _gauss2_vanishing():
    def f(x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return (x1 - x2) ** 2 * np.exp(-(x1**2) - x2**2)

    return f


def check_delta_sequence(
    n: int,
    power_g: float,
    test_fn=None,
    schedule: RegSchedule | None = None,
    y=None,
    q: QuadSpec | None = None,
    tol: float | None = None,
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

    For n = 2 the plane is integrated in u = x1 + x2, v = x1 - x2.  The
    kernel is even in v (swapping x1 and x2 permutes its four factors), so
    it sees only the symmetric part of f: the v axis runs over [0, L] with
    the folded weight [f(x1, x2) + f(x2, x1)], which equals the full-line
    integral for any test_fn at half the nodes.
    """
    if q is None:
        q = QuadSpec(rel_tol=1e-8, abs_tol=1e-10)
    g = float(power_g)
    if isinstance(test_fn, FunctionHandle):
        test_fn = test_fn.fn
    if n == 1:
        y0 = 0.0 if y is None else float(y)
        f = test_fn or _gauss()
        schedule = schedule or RegSchedule((8e-3, 3e-3, 1e-3), (10.0, 20.0, 40.0))
        if g == 1.0:
            target = 2j * math.pi * complex(f(np.asarray(y0)))
            name = "delta_n1_g1"
        else:
            target = (
                2.0 * math.pi / complex_gamma(g) * np.exp(0.5j * math.pi * g)
            ) * complex(f(np.asarray(y0)))
            name = "delta_n1_general"
        tol = derived_threshold(name) if tol is None else tol
        devs, plist = [], []
        for eps, reg in schedule.steps():
            if g == 1.0:
                def integrand(x):
                    x = np.asarray(x, dtype=float)
                    return f(x) * np.exp(1j * reg * (x - y0)) / (x - y0 - 1j * eps)
            else:
                def integrand(x):
                    x = np.asarray(x, dtype=float)
                    return (
                        f(x)
                        * reg ** (1.0 - g)
                        * np.exp(1j * reg * (x - y0))
                        * (x - y0 - 1j * eps) ** (-g)
                    )

            val = integrate_line(
                integrand, DecayProfile(4.0, 4.0, center=y0), q, freq_hint=reg
            )
            devs.append(abs(val - target) / abs(target))
            plist.append({"n": 1, "g": g, "regulator": reg, "eps": eps, "y": y0})
        return _trend_results(name, plist, devs, tol)

    if n != 2:
        raise DomainError("n must be 1 or 2")
    y1, y2 = (0.3, -0.3) if y is None else (float(y[0]), float(y[1]))
    if test_fn is not None:
        f = test_fn
    elif g == 1.0:
        f = _gauss2()
    else:
        # the power form is conjecture-level and is used only against weights
        # that vanish at coincident arguments (as in the scalar-product
        # assembly); a plain Gaussian picks up non-decaying oscillatory
        # contributions from the coincident-point pinches
        f = _gauss2_vanishing()
    schedule = schedule or RegSchedule((4e-3, 1.5e-3, 5e-4), (10.0, 20.0, 40.0))
    if g == 1.0:
        target = 4.0 * math.pi**2 * (complex(f(y1, y2)) + complex(f(y2, y1)))
        name = "delta_n2_vandermonde"
    else:
        target = (
            (2.0 * math.pi / complex_gamma(g)) ** 2
            * np.exp(2j * math.pi * g)
            * (complex(f(y1, y2)) + complex(f(y2, y1)))
            / abs(y1 - y2) ** (2.0 * g)
        )
        name = "delta_n2_power"
    tol = derived_threshold(name) if tol is None else tol
    ysum = y1 + y2
    devs, plist = [], []
    for eps, reg in schedule.steps():
        # rotated coordinates: the oscillation e^(i reg (x1+x2)) lives on the
        # u axis only
        def fu(u, v):
            u = np.asarray(u, dtype=float)
            v = np.asarray(v, dtype=float)
            x1 = 0.5 * (u + v)
            x2 = 0.5 * (u - v)
            diffs = (x1 - y1, x1 - y2, x2 - y1, x2 - y2)
            # the Jacobian 1/2 times the weight folded from v < 0 onto v > 0
            folded = 0.5 * (f(x1, x2) + f(x2, x1))
            if g == 1.0:
                weight = (x1 - x2) ** 2 / math.prod(d - 1j * eps for d in diffs)
                return folded * np.exp(1j * reg * (u - ysum)) * weight
            # per-factor principal powers (not a power of the product):
            # prod_k (d_k - i eps)^(-g) = e^(-g sum_k (ln|f_k| + i arg f_k)),
            # with real moduli and arguments of the factors f_k = d_k - i eps;
            # the regulator power, this and the plane phase form one exp
            ln_mod = 0.5 * np.log(math.prod(d * d + eps * eps for d in diffs))
            arg = sum(np.arctan2(-eps, d) for d in diffs)
            return folded * np.exp(
                (2.0 * (1.0 - g) * math.log(reg) - g * ln_mod)
                + 1j * (reg * (u - ysum) - g * arg)
            )

        # the kernel is even in v: v < 0 is folded onto the half-line [0, L]
        val = integrate_plane(
            fu,
            DecayProfile(4.0, 4.0),  # u axis (Gaussian-dominated)
            DecayProfile(4.0, math.inf),  # v axis, v >= 0
            q,
            freq_hint1=reg,
            freq_hint2=0.5,
        )
        devs.append(abs(val - target) / abs(target))
        entry = {"n": 2, "g": g, "regulator": reg, "eps": eps, "y": (y1, y2)}
        if g != 1.0:
            entry["conjecture"] = True
        plist.append(entry)
    return _trend_results(name, plist, devs, tol)


# ---------------------------------------------------------------------------
# orthogonality coefficients
# ---------------------------------------------------------------------------


def check_orthogonality_coefficient(
    family: KernelFamily,
    lams: SpectralPoint | None = None,
    c: Coupling | None = None,
    tol: float = 1e-9,
) -> CheckResult:
    """Closed-form orthogonality coefficient by two independent assemblies.

    For the hyperbolic family: the operator-regularization route (gamma
    factors of second kind, explicit 1/lam12^2 singular factor) against the
    textbook normalization; pure special-function arithmetic, no quadrature.
    """
    family = KernelFamily(family)
    if family is HYP:
        c = c or Coupling(1.0)
        lams = lams or SpectralPoint(0.5, -0.5)
        d = complex(lams.delta)
        if d == 0:
            raise DomainError("coincident spectral values")
        g = c.g
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
        c = c or Coupling(1.0)
        lams = lams or SpectralPoint(0.5, -0.5)  # position labels here
        d = complex(lams.delta).real
        g = c.g
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
        c = c or Coupling(0.9, _PERIODS)
        lams = lams or SpectralPoint(0.4, -0.4)
        p = c.require_periods()
        d = complex(lams.delta).real
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
        f"orthogonality_{family.value}", params, route_a, route_b, tol
    )

# ---------------------------------------------------------------------------
# eigenrelations, representation equivalence, exchange relations
# ---------------------------------------------------------------------------


def check_eigen_n1(
    family: KernelFamily,
    points=None,
    c: Coupling | None = None,
    q: QuadSpec = QuadSpec(),
    tol: float = 1e-8,
    seed: int = 1234,
) -> list[CheckResult]:
    """One-variable operator on a plane wave against the closed eigenvalue,
    sampled at several evaluation points (the ratio must also be constant)."""
    family = KernelFamily(family)
    if c is None:
        c = Coupling(0.9, _PERIODS) if family is REL else Coupling(1.1)
    rng = np.random.RandomState(seed)
    lam = 0.7
    label = 0.25
    pts = points if points is not None else np.round(rng.uniform(-1.5, 1.5, 5), 3)
    dual = family is not HYP
    spec = OperatorSpec(family, 1, dual, c, lam)
    pw = plane_wave(label, family, c)
    ev = eigenvalue(family, lam, label, c.dual() if family is REL else c)
    out = []
    for x0 in pts:
        lhs = apply_Q(spec, pw, float(x0), q)
        rhs = ev * complex(pw.fn(float(x0)))
        out.append(
            CheckResult.compare(
                f"eigen_n1_{family.value}",
                {"family": family.value, "g": c.g, "lam": lam, "label": label, "at": float(x0)},
                lhs,
                rhs,
                tol,
            )
        )
    return out


def check_eigen_n2(
    family: KernelFamily,
    c: Coupling | None = None,
    q: QuadSpec | None = None,
    tol: float | None = None,
) -> CheckResult:
    """Two-variable operator on its factored eigenfunction: value must equal
    2 q(lam, l1) q(lam, l2) times the eigenfunction."""
    family = KernelFamily(family)
    if q is None:
        q = QuadSpec(rel_tol=1e-9, abs_tol=1e-11)
    c = c or (Coupling(0.9, _PERIODS) if family is REL else Coupling(1.0))
    # eigenfunction labels (positions for gamma and relativistic), operator
    # spectral argument, evaluation point, tolerance
    sp, lam, at, tol0 = {
        HYP: (SpectralPoint(0.4, -0.3), 0.55, (0.3, -0.45), 1e-5),
        GAM: (SpectralPoint(0.25, -0.4), 0.5, (0.35, -0.2), 1e-4),
        REL: (SpectralPoint(0.3, -0.25), 0.4, (0.2, -0.3), 1e-4),
    }[family]
    tol = tol0 if tol is None else tol
    dual = family is not HYP
    h = eigenfunction_handle(sp, c, family, q, dual=dual)
    lhs = apply_Q(OperatorSpec(family, 2, dual, c, lam), h, at, q)
    if family is HYP:
        phi = psi_hr(sp, PositionPoint(*at), c, HYP, q)
    elif family is GAM:
        phi = psi_mb(SpectralPoint(*at), PositionPoint(sp.lambda1.real, sp.lambda2.real), c, GAM, q)
    else:
        phi = complex(
            np.exp(1j * exponent_scale(REL, c) * sp.plus * (at[0] + at[1]))
            * pair_transform(REL, c, sp.delta, at[0] - at[1], q)
        )
    ce = c.dual() if family is REL else c
    eig1, eig2 = (eigenvalue(family, lam, label, ce) for label in (sp.lambda1, sp.lambda2))
    rhs = 2.0 * eig1 * eig2 * phi
    return CheckResult.compare(
        f"eigen_n2_{family.value}",
        {"family": family.value, "g": c.g},
        lhs,
        rhs,
        tol,
    )


# relativistic flag -> (check name, psi_hr family, psi_mb family, periods,
# spectral and position centres, couplings, spectral and position gaps, tolerance)
_REPRESENTATION_GRIDS = {
    False: ("representation_equivalence", HYP, GAM, None, (0.3, -0.2),
            (0.7, 1.0, 1.6), (0.5, 1.1, 2.0), (0.4, 1.0, 2.2), 1e-7),
    True: ("representation_equivalence_rel", REL, REL, _PERIODS, (0.1, -0.1),
           (0.8, 1.3), (0.4, 1.0), (0.5, 1.2), 1e-5),
}


def check_representation_equivalence(
    relativistic: bool = False,
    q: QuadSpec = QuadSpec(),
    tol: float | None = None,
) -> list[CheckResult]:
    """Position-side against spectral-side wave function on a parameter grid."""
    name, hr_family, mb_family, periods, (lam_plus, x_plus), gs, dls, dxs, tol0 = (
        _REPRESENTATION_GRIDS[relativistic]
    )
    tol = tol0 if tol is None else tol
    out = []
    for g in gs:
        c = Coupling(g, periods)
        for dl in dls:
            for dx in dxs:
                sp = SpectralPoint(lam_plus + dl / 2, lam_plus - dl / 2)
                pp = PositionPoint(x_plus + dx / 2, x_plus - dx / 2)
                a = psi_hr(sp, pp, c, hr_family, q)
                b = psi_mb(sp, pp, c, mb_family, q)
                r = CheckResult.compare(name, {"g": g, "dl": dl, "dx": dx}, a, b, tol)
                # tolerance is relative to max(1, |psi|)
                r.passed = bool(r.abs_err <= tol * max(1.0, abs(a)))
                out.append(r)
    return out


def check_qlambda(
    family: KernelFamily,
    q: QuadSpec = QuadSpec(),
    tol: float = 1e-6,
) -> CheckResult:
    """Exchange relation with the family spectral shift at one admissible point."""
    family = KernelFamily(family)
    if family is HYP:
        c = Coupling(1.0)
        lam, rho, at = 0.5, 0.2 + 0.5j, (0.3, -0.4)
        lhs, rhs = qlambda_exchange_check(family, lam, rho, at, c, q, test_label=0.1)
        params = {"family": "hyperbolic", "g": c.g, "lam": lam, "rho_re": rho.real, "rho_im": rho.imag}
    elif family is GAM:
        c = Coupling(1.0)
        lam, rho, at = 0.3, 0.1 + 0.4j, 0.7
        lhs, rhs = qlambda_exchange_check(family, lam, rho, at, c, q)
        params = {"family": "gamma", "g": c.g, "x": lam, "y_re": rho.real, "y_im": rho.imag}
    else:
        c = Coupling(0.8, _PERIODS)
        lam, rho, at = 0.3, 0.1 + 0.3j, 0.45
        lhs, rhs = qlambda_exchange_check(family, lam, rho, at, c, q)
        params = {"family": "relativistic", "g": c.g, "x": lam, "y_re": rho.real, "y_im": rho.imag}
    return CheckResult.compare(f"qlambda_{family.value}", params, lhs, rhs, tol)


def check_dual_construction(q: QuadSpec = QuadSpec(), tol: float = 1e-7) -> list[CheckResult]:
    """Wave function assembled through both one-variable dual operators.

    e^(i l2 x2) Q1(l2) applied to [the spectral-side operator's action on the
    plane wave] must reproduce both integral representations.
    """
    c = Coupling(1.0)
    l1, l2 = 0.4, -0.3
    x1, x2 = 0.2, -0.6
    # spectral-side operator action on e^(i x1 gamma), checked pointwise
    spec_g = OperatorSpec(GAM, 1, True, c, x2)
    pwg = plane_wave(x1, GAM, c)
    got = apply_Q(spec_g, pwg, l1, q)
    expected = kernel_K(x2 - x1, c) * complex(np.exp(1j * x1 * l1))
    r1 = CheckResult.compare(
        "dual_construction_inner", {"x1": x1, "x2": x2, "l1": l1}, got, expected, 1e-10
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


def _residual_results(name: str, residual, q: QuadSpec, tol: float) -> list[CheckResult]:
    """Equation residuals of the g = 1 wave function at three position points."""
    c = Coupling(1.0)
    sp = SpectralPoint(0.4, -0.3)
    out = []
    for pp in (PositionPoint(0.5, -0.5), PositionPoint(0.9, 0.2), PositionPoint(-0.3, -1.1)):
        r = residual(sp, pp, c, 1e-2, q)
        out.append(CheckResult.bound(name, {"g": c.g, "x": (pp.x1, pp.x2), "h": 1e-2}, r, tol))
    return out


def check_schrodinger(q: QuadSpec = QuadSpec(), tol: float = 1e-4) -> list[CheckResult]:
    return _residual_results("schrodinger_residual", schrodinger_residual, q, tol)


def check_momentum(q: QuadSpec = QuadSpec(), tol: float = 1e-6) -> list[CheckResult]:
    return _residual_results("momentum_residual", momentum_residual, q, tol)


def check_dual_difference(q: QuadSpec = QuadSpec(), tol_p: float = 1e-6, tol_h: float = 1e-5) -> list[CheckResult]:
    c = Coupling(2.5)
    sp = SpectralPoint(0.4, -0.3)
    pp = PositionPoint(0.2, -0.1)
    res = dual_difference_residual(sp, pp, c, q)
    params = {"g": c.g, "lam": (0.4, -0.3), "x": (0.2, -0.1)}
    return [
        CheckResult.bound("dual_difference_momentum", params, res.momentum, tol_p),
        CheckResult.bound("dual_difference_hamiltonian", params, res.hamiltonian, tol_h),
    ]


def check_psi_asymptotics(q: QuadSpec = QuadSpec(), tol: float | None = None) -> list[CheckResult]:
    """Two-plane-wave asymptote: deviation shrinking in the separation."""
    c = Coupling(1.0)
    sp = SpectralPoint(0.5, -0.5)
    tol = derived_threshold("psi_asymptotic_dx8") if tol is None else tol
    devs, plist = [], []
    for dx in (6.0, 8.0):
        pp = PositionPoint(-dx / 2, dx / 2)
        ex = psi_hr(sp, pp, c, HYP, q)
        asym = psi_asymptotic(sp, pp, c)
        devs.append(abs(ex - asym) / abs(asym))
        plist.append({"g": 1.0, "dx": dx})
    return _trend_results("psi_asymptotic", plist, devs, tol)


def check_hatK_asymptotic(tol: float | None = None) -> list[CheckResult]:
    """Large-argument kernel asymptote on the gamma side, shrinking deviation."""
    from .kernels import hatK_asymptotic

    c = Coupling(1.5)
    tol = derived_threshold("hatK_asymptotic_mu40") if tol is None else tol
    devs, plist = [], []
    for mu in (40.0, 80.0):
        ex = kernel_hatK(0.0 - mu, c)
        asym = hatK_asymptotic(0.0, mu, c)
        devs.append(abs(ex - asym) / abs(asym))
        plist.append({"g": c.g, "mu": mu})
    return _trend_results("hatK_asymptotic", plist, devs, tol)


def check_q_to_lambda_degeneration(tol: float | None = None) -> list[CheckResult]:
    """Two-variable kernel degenerating to the raising kernel as y2 grows."""
    c = Coupling(1.0)
    lam = 0.4
    x1, x2, y1 = 0.3, -0.2, 0.15
    tol = derived_threshold("q_to_lambda_y14") if tol is None else tol
    devs, plist = [], []
    for y2 in (6.0, 10.0, 14.0):
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
        devs.append(abs(lhs - rhs) / abs(rhs))
        plist.append({"g": c.g, "y2": y2})
    return _trend_results("q_to_lambda_degeneration", plist, devs, tol)


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
