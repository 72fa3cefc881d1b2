import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypq.errors import DomainError, UnknownCheckError
from hypq.kernels import Coupling, KernelFamily, kernel_hatK
from hypq.operators import OperatorSpec, _Ops, apply_Q, factored_pair_handle
from hypq.quad import DecayProfile, QuadSpec, integrate_plane
from hypq.special import Periods, complex_gamma
from hypq.suite import (
    CheckResult,
    RegSchedule,
    REGISTRY,
    check_beta,
    check_delta_sequence,
    check_eigen_n1,
    check_g1_determinant_route,
    check_orthogonality_coefficient,
    check_qlambda,
    check_qq_commutativity,
    check_reduction,
    q2_kernel_det_route,
    registry_names,
    run_suite,
)

HYP, GAM, REL = KernelFamily.HYPERBOLIC, KernelFamily.GAMMA, KernelFamily.RELATIVISTIC


class TestCheckResult:
    @given(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        st.floats(1e-12, 1e-2),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, lhs, rhs, tol):
        r = CheckResult.compare("x", {}, lhs, rhs, tol)
        assert r.abs_err == abs(lhs - rhs)
        assert r.rel_err == r.abs_err / max(abs(lhs), abs(rhs), 1e-300)
        assert r.passed == (r.abs_err <= tol * max(abs(lhs), abs(rhs)))

    def test_small_pair_fails_on_its_relative_error(self):
        # abs_err 5e-5 is below the tolerance, but rel_err is 0.048
        assert not CheckResult.compare("x", {}, 1e-3, 1.05e-3, 1e-4).passed

    def test_judge_keeps_a_stated_scale(self):
        r = CheckResult.compare("x", {}, 1e-3, 1.05e-3, 1e-4, scale=1.0)
        assert r.passed and r.tolerance == 1e-4
        assert not r.judge(1e-5).passed and r.tolerance == 1e-5
        assert CheckResult.bound("b", {}, 0.2, 0.3).judge(0.2).passed


class TestRegSchedule:
    def test_validation(self):
        with pytest.raises(DomainError):
            RegSchedule((1e-3, 1e-2), (10.0, 20.0))  # epsilons must descend
        with pytest.raises(DomainError):
            RegSchedule((1e-2, 1e-3), (20.0, 10.0))  # regulators must ascend
        with pytest.raises(DomainError):
            RegSchedule((1e-2, 1e-3, 1e-4), (10.0, 20.0))  # length mismatch

    def test_pairing_and_broadcast(self):
        s = RegSchedule((1e-2, 1e-3), (10.0, 20.0))
        assert s.steps() == [(1e-2, 10.0), (1e-3, 20.0)]
        s2 = RegSchedule((1e-3,), (10.0, 20.0))
        assert s2.steps() == [(1e-3, 10.0), (1e-3, 20.0)]


class TestRunner:
    def test_empty_selection(self):
        assert run_suite([]) == []

    def test_unknown_name(self):
        with pytest.raises(UnknownCheckError):
            run_suite(["not_a_check"])

    def test_single_check_passes(self):
        res = run_suite(["orthogonality_hyperbolic"])
        assert len(res) == 1 and res[0].passed

    def test_registry_nonempty_and_ordered(self):
        names = registry_names()
        assert len(names) > 30
        assert names[0] == "beta_hyperbolic"

    def test_deterministic_rerun(self):
        a = run_suite(["qq_n1_hyperbolic", "orthogonality_gamma"])
        b = run_suite(["qq_n1_hyperbolic", "orthogonality_gamma"])
        for ra, rb in zip(a, b):
            assert ra.lhs == rb.lhs and ra.rhs == rb.rhs


class TestRegistryRows:
    # the seed run_suite passes to check_eigen_n1 and the schedule hypq sweep
    # passes to check_delta_sequence (check_reduction's is already its row's)
    EXTRAS = {check_eigen_n1: ["seed"], check_delta_sequence: ["schedule"]}

    @pytest.mark.parametrize("name", registry_names())
    def test_function_takes_what_its_row_passes(self, name):
        # so no setting, a tolerance least of all, can be stated a second
        # time through a parameter that only a test would set
        fn, *args = REGISTRY[name]
        params = inspect.signature(fn).parameters
        extras = list(params)[len(args):]
        assert len(params) >= len(args) and extras == self.EXTRAS.get(fn, []), (name, extras)
        assert all(params[p].default is not inspect.Parameter.empty for p in extras)


class TestBetaChecks:
    def test_hyperbolic_trivial(self):
        r = check_beta(HYP, 0.0, Coupling(1.0))
        assert r.passed and abs(r.lhs - math.pi) < 1e-10

    def test_hyperbolic_closed_form(self):
        r = check_beta(HYP, 0.6, Coupling(1.0))
        assert abs(r.rhs - math.pi / math.cosh(0.3 * math.pi)) < 1e-13
        assert r.passed

    def test_relativistic(self):
        r = check_beta(REL, 0.4, Coupling(0.8, Periods(1.0, math.sqrt(2.0))))
        assert r.passed and r.rel_err < 1e-7


class TestEigenRelations:
    PREFIXES = (
        "beta_", "eigen_n1_", "eigen_n2_", "scalar_chain_", "dual_construction_inner",
        "qlambda_gamma", "qlambda_relativistic",
    )

    def test_scaled_eigenvalue_fails_every_record(self, monkeypatch):
        # every eigen record is judged on its relative error, so an eigenvalue
        # one part in 10^3 off fails it however small |rhs| is: the smallest
        # are eigen_n2_relativistic (|rhs| = 0.018, tol 1e-4) and the
        # two-variable scalar_chain_relativistic step (|rhs| = 1.4e-4)
        eigen = _Ops.eigen
        monkeypatch.setattr(_Ops, "eigen", lambda ops, s, l: eigen(ops, s, l) * (1.0 + 1e-3))
        rows = [n for n in registry_names() if n.startswith(self.PREFIXES)] + ["dual_construction"]
        records = [r for r in run_suite(rows) if r.check_name.startswith(self.PREFIXES)]
        assert len(records) == 21 + 15 + 3 + 9 + 1 + 2
        assert not [(r.check_name, r.params) for r in records if r.passed]

    def test_scaled_exchange_factor_fails_hyperbolic_qlambda(self, monkeypatch):
        # the two-variable exchange relation takes no _Ops.eigen: its scalar
        # factor is Khat(lam - rho') itself
        scaled = lambda lam, c: kernel_hatK(lam, c) * (1.0 + 1e-3)
        monkeypatch.setattr("hypq.suite.kernel_hatK", scaled)
        assert not check_qlambda(HYP).passed


class TestReductions:
    @pytest.mark.parametrize(
        "which,sched",
        [
            ("Kg_to_hatK", (0.2, 0.1, 0.05)),
            ("Kgstar_to_K", (0.2, 0.1, 0.05)),
            ("beta_reduction_1", (0.2, 0.1, 0.05)),
            ("beta_reduction_2", (0.2, 0.1, 0.05)),
            ("S2_to_gamma", (10.0, 20.0, 40.0)),
        ],
    )
    def test_all_kinds_decrease(self, which, sched):
        rs = check_reduction(which, sched)
        devs = [r.abs_err for r in rs]
        assert devs[2] < devs[1] < devs[0]
        assert all(r.passed for r in rs)

    def test_wrong_direction_rejected(self):
        with pytest.raises(DomainError):
            check_reduction("Kg_to_hatK", (0.05, 0.1, 0.2))
        with pytest.raises(UnknownCheckError):
            check_reduction("nope", (0.2, 0.1))


TREND_CHECKS = [
    "reduction_Kg_to_hatK",
    "reduction_Kgstar_to_K",
    "reduction_beta_1",
    "reduction_beta_2",
    "reduction_S2_to_gamma",
    "delta_n1_g1",
    "delta_n1_general",
    "delta_n2_vandermonde",
    "delta_n2_power",
    "psi_asymptotic",
    "hatK_asymptotic",
    "q_to_lambda_degeneration",
]


class TestTrendRecords:
    @pytest.mark.parametrize("name", TREND_CHECKS)
    def test_each_step_states_its_bound(self, name):
        # each step is held below the step before it, and the last also below
        # the final threshold; the record's tolerance is that bound
        rs = run_suite([name])
        assert rs[0].tolerance == math.inf
        for prev, r in zip(rs, rs[1:]):
            assert r.tolerance <= prev.abs_err
        for r in rs:
            assert r.passed == (r.abs_err < r.tolerance)

    def test_bounds_of_a_sequence(self):
        from hypq.suite import _trend

        def trend(devs, final_tol):
            return _trend("t", [{"d": d} for d in devs], lambda p: p["d"], final_tol)

        rs = trend([0.3, 0.2, 0.1], 0.5)
        assert [r.tolerance for r in rs] == [math.inf, 0.3, 0.2]
        assert all(r.passed for r in rs)
        rs = trend([0.3, 0.4, 0.01], 0.05)
        assert [r.tolerance for r in rs] == [math.inf, 0.3, 0.05]
        assert [r.passed for r in rs] == [True, False, True]


class TestDeterminantRoute:
    def test_all_steps(self):
        rs = check_g1_determinant_route()
        names = [r.check_name for r in rs]
        assert names == [
            "det_route_cauchy",
            "det_route_n1_rational",
            "det_route_andreief",
            "det_route_vs_direct",
        ]
        assert all(r.passed for r in rs)

    def test_det_route_matches_direct_kernel(self):
        from hypq.operators import OperatorSpec, qq_convolution_kernel

        q = QuadSpec()
        x, z, lam, rho = (0.1, -0.3), (0.2, -0.4), 0.3, -0.2
        direct = qq_convolution_kernel(
            OperatorSpec(HYP, 2, False, Coupling(1.0), 0.0), lam, rho, (x, z), q
        )
        viadet = q2_kernel_det_route(x, z, lam, rho, q)
        assert abs(direct - viadet) <= 1e-8 * abs(direct)


class TestOrthogonality:
    @pytest.mark.parametrize("family", [HYP, GAM, REL])
    def test_routes_agree(self, family):
        r = check_orthogonality_coefficient(family)
        assert r.passed and r.rel_err < 1e-9

    def test_relativistic_finite_positive(self):
        # the row's own point: lam12 = 0.8 at g = 0.9, periods (1, sqrt 2)
        r = check_orthogonality_coefficient(REL)
        assert r.params == {"family": "relativistic", "g": 0.9, "lam12": 0.8}
        assert r.lhs.real > 0 and abs(r.lhs.imag) < 1e-10 * r.lhs.real


class TestDeltaSequences:
    def test_n1_g1(self):
        rs = check_delta_sequence(1, 1.0)
        devs = [r.abs_err for r in rs]
        assert devs[2] < devs[1] < devs[0]
        assert all(r.passed for r in rs)
        assert devs[2] < 5e-2

    def test_custom_schedule_single_point(self):
        rs = check_delta_sequence(1, 1.0, schedule=RegSchedule((1e-3,), (40.0,)))
        assert len(rs) == 1 and rs[0].passed

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            check_delta_sequence(3, 1.0)

    def test_n1_g1_exact_finite_regulator(self):
        # at y = 0 and f = e^(-x^2) the step's integral has the closed form
        # i pi e^(eps^2 - eps L) erfc(eps - L/2); the quadrature matches its
        # deviation to about 3e-15 at each default step
        for r in check_delta_sequence(1, 1.0):
            eps, reg = r.params["eps"], r.params["regulator"]
            exact = 1j * math.pi * math.exp(eps * eps - eps * reg) * math.erfc(eps - 0.5 * reg)
            assert abs(r.abs_err - abs(exact - 2j * math.pi) / (2.0 * math.pi)) <= 1e-13

    @staticmethod
    def _plane_deviation(terms, g, eps, reg, y1, y2):
        # the n = 2 deviation from the whole (u, v) plane, an independent
        # route to the product of one-particle integrals
        def f(x1, x2):
            return sum(c * f1(x1) * f2(x2) for c, f1, f2 in terms)

        def full(u, v):
            x1, x2 = 0.5 * (u + v), 0.5 * (u - v)
            kern = reg ** (2.0 * (1.0 - g)) * np.exp(1j * reg * (u - y1 - y2))
            for d in (x1 - y1, x1 - y2, x2 - y1, x2 - y2):
                kern = kern * (d - 1j * eps) ** (-g)
            if g == 1.0:
                kern = kern * (x1 - x2) ** 2
            return 0.5 * f(x1, x2) * kern

        d = DecayProfile(4.0, 4.0)
        val = integrate_plane(
            full, d, d, QuadSpec(rel_tol=1e-10, abs_tol=1e-12), freq_hint1=reg, freq_hint2=0.5
        )
        target = 4.0 * math.pi**2 * (f(y1, y2) + f(y2, y1))
        if g != 1.0:
            target *= np.exp(2j * math.pi * g) / complex_gamma(g) ** 2 / abs(y1 - y2) ** (2.0 * g)
        return abs(val - target) / abs(target)

    @pytest.mark.parametrize("g", [1.0, 0.8])
    def test_n2_separable_matches_plane(self, g):
        # the rows' own test functions at their y = (0.3, -0.3): e^(-x1^2 - x2^2)
        # against the Vandermonde kernel at g = 1, (x1 - x2)^2 e^(-x1^2 - x2^2)
        # against the power form; the sum of products of one-particle
        # integrals equals the (u, v) plane integral
        def gauss(x):
            return np.exp(-x * x)

        def x_gauss(x):
            return x * np.exp(-x * x)

        def x2_gauss(x):
            return x * x * np.exp(-x * x)

        if g == 1.0:
            terms = [(1.0, gauss, gauss)]
        else:
            terms = [(1.0, x2_gauss, gauss), (-2.0, x_gauss, x_gauss), (1.0, gauss, x2_gauss)]
        eps, reg, y1, y2 = 4e-3, 10.0, 0.3, -0.3
        rs = check_delta_sequence(2, g, schedule=RegSchedule((eps,), (reg,)))
        assert rs[0].params["y"] == (y1, y2)
        ref = self._plane_deviation(terms, g, eps, reg, y1, y2)
        assert abs(rs[0].abs_err - ref) <= 1e-8 * rs[0].abs_err

    @pytest.mark.parametrize(
        "name,ceiling",
        [
            pytest.param(name, ceiling, id=name)
            for name, ceiling in (
                ("beta_hyperbolic", 4_300),
                ("beta_gamma", 3_200),
                ("beta_relativistic", 1_200),
                ("delta_n2_vandermonde", 18_000),
                ("delta_n2_power", 17_800),
                ("qq_n2_gamma", 48_500),
                ("eigen_n2_relativistic", 80_500),
                ("scalar_chain_gamma", 133_000),
                ("scalar_chain_hyperbolic", 159_000),
                ("scalar_chain_relativistic", 86_000),
                ("qlambda_hyperbolic", 59_000),
                ("qq_n2_hyperbolic_g1", 69_500),
                ("qq_n2_hyperbolic_g13", 84_000),
                ("qq_n2_relativistic", 28_500),
                ("eigen_n2_hyperbolic", 59_000),
                ("eigen_n2_gamma", 59_000),
                ("det_route_g1", 79_500),
            )
        ],
    )
    def test_n2_work_ceiling(self, gk_nodes, name, ceiling):
        # integrand nodes of the whole check, about 1.2 times its count with
        # first panels doubling through each tail, each distinct one-particle
        # integral taken once per delta step and panels judged by the decay
        # of their Legendre coefficients: 3,540, 2,640 and 960
        # (beta_hyperbolic, beta_gamma, beta_relativistic, as the plane-wave
        # eigen relation at label 0 and point 0), 14,925
        # (delta_n2_vandermonde), 14,775 (delta_n2_power), 40,140
        # (qq_n2_gamma), 66,765 (eigen_n2_relativistic), 110,490
        # (scalar_chain_gamma), 132,495 (scalar_chain_hyperbolic), 71,430
        # (scalar_chain_relativistic), 48,825 (qlambda_hyperbolic), 57,720
        # and 69,990 (qq_n2_hyperbolic_g1, _g13), 23,550
        # (qq_n2_relativistic), 48,870 (eigen_n2_hyperbolic), 49,035
        # (eigen_n2_gamma) and 65,910 (det_route_g1).  Judged by |K15 - G7|
        # alone they took 5,040, 3,420, 1,320, 19,815, 20,115, 94,170,
        # 80,025, 218,850, 232,020, 118,455, 92,985, 88,290, 105,240,
        # 29,610, 79,170, 61,995 and 206,775; with uniform first panels over
        # the whole padded interval the delta checks took 10.67 M and
        # 11.34 M on the unfolded (u, v) plane
        assert all(r.passed for r in run_suite([name]))
        assert 0 < sum(gk_nodes) <= ceiling


class TestQLambda:
    def test_hyperbolic_value_independent_of_truncation(self):
        # the v axis must be cut at a rate that counts the plane factor of the
        # complex label_plus; a cut that ignored Im(label_plus) left the value
        # 9.55e-12 off the one at doubled tails.  The row's lhs, Q2(lam) on
        # the factored pair of labels (0.1, rho'), at both specs:
        c = Coupling(1.0)
        rho_s = 0.2 + 0.5j - 1j * _Ops(HYP, True, c).strip

        def lhs(q):
            pair = factored_pair_handle(HYP, c, 0.5 * (0.1 + rho_s), 0.1 - rho_s, q)
            return apply_Q(OperatorSpec(HYP, 2, False, c, 0.5), pair, (0.3, -0.4), q)

        default = lhs(QuadSpec())
        assert default == check_qlambda(HYP).lhs
        assert abs(default - lhs(QuadSpec(truncation_safety=3.0))) <= 1e-12


class TestQQCommutativity:
    def test_n1_families(self):
        for fam in (HYP, GAM, REL):
            r = check_qq_commutativity(fam, 1)
            assert r.passed and r.rel_err < 1e-6
