import math

import numpy as np
import pytest

from hypq.errors import DivergenceError, DomainError, KernelPoleError
from hypq.kernels import (
    Coupling,
    KernelFamily,
    eigenvalue,
    kernel_hatK,
    kernel_K,
    kernel_K_complex,
    kernel_Kg,
    measure,
    measure_hyperbolic,
)
from hypq.operators import (
    _Ops,
    Envelope,
    FunctionHandle,
    OperatorSpec,
    apply_Lambda,
    apply_Q,
    factored_pair_handle,
    pair_transform,
    plane_wave,
    qq_convolution_kernel,
)
from hypq.quad import DecayProfile, QuadSpec, integrate_line
from hypq.special import Periods
from hypq.wavefn import PositionPoint, SpectralPoint, psi_hr

from oracles import trapezoid_oracle_2d

HYP, GAM, REL = KernelFamily.HYPERBOLIC, KernelFamily.GAMMA, KernelFamily.RELATIVISTIC
Q = QuadSpec()
P12 = Periods(1.0, math.sqrt(2.0))
_GAUSS2 = FunctionHandle(lambda y1, y2: np.exp(-y1 * y1 - y2 * y2), Envelope(1.5, 1.5))
_PW = plane_wave(0.1, HYP, Coupling(1.0))
_Q1, _Q2 = (OperatorSpec(HYP, n, False, Coupling(1.0), 0.2) for n in (1, 2))


class TestOperatorSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            OperatorSpec(HYP, 3, False, Coupling(1.0), 0.0)
        with pytest.raises(DomainError):
            OperatorSpec(HYP, 1, True, Coupling(1.0), 0.0)
        with pytest.raises(DomainError):
            OperatorSpec(GAM, 1, False, Coupling(1.0), 0.0)
        with pytest.raises(DomainError):
            OperatorSpec(REL, 1, True, Coupling(1.0), 0.0)  # needs periods


class TestOneVariableEigen:
    def test_hyperbolic(self):
        c = Coupling(1.0)
        lam, lam1, x0 = 0.9, 0.2, 0.4
        spec = OperatorSpec(HYP, 1, False, c, lam)
        pw = plane_wave(lam1, HYP, c)
        got = apply_Q(spec, pw, x0, Q)
        want = kernel_hatK(lam - lam1, c) * np.exp(1j * lam1 * x0)
        assert abs(got - want) < 1e-12

    def test_gamma(self):
        c = Coupling(1.3)
        x0, x1, lam0 = 0.6, -0.3, 0.5
        spec = OperatorSpec(GAM, 1, True, c, x0)
        pw = plane_wave(x1, GAM, c)
        got = apply_Q(spec, pw, lam0, Q)
        want = kernel_K(x0 - x1, c) * np.exp(1j * x1 * lam0)
        assert abs(got - want) < 1e-12

    def test_relativistic(self):
        c = Coupling(0.8, P12)
        kap = 2 * math.pi / P12.product
        x0, r0, l0 = 0.45, -0.2, 0.3
        spec = OperatorSpec(REL, 1, True, c, x0)
        pw = plane_wave(r0, REL, c)
        got = apply_Q(spec, pw, l0, Q)
        want = eigenvalue(REL, x0, r0, c.dual()) * np.exp(1j * kap * r0 * l0)
        assert abs(got - want) < 1e-11

    def test_ratio_constant_across_points(self):
        c = Coupling(0.9)
        spec = OperatorSpec(HYP, 1, False, c, 0.7)
        pw = plane_wave(0.25, HYP, c)
        ratios = [
            apply_Q(spec, pw, x0, Q) / complex(pw.fn(x0))
            for x0 in (-1.2, -0.3, 0.0, 0.8, 1.5)
        ]
        spread = max(abs(r - ratios[0]) for r in ratios)
        assert spread <= 1e-8 * abs(ratios[0])

    def test_translation_equivariance(self):
        c = Coupling(1.0)
        spec = OperatorSpec(HYP, 1, False, c, 0.6)
        a = 0.9

        def f(t):
            return np.exp(-((np.asarray(t, dtype=float)) ** 2))

        def f_shift(t):
            return np.exp(-((np.asarray(t, dtype=float) - a) ** 2))

        h = FunctionHandle(f, Envelope(1.0, 1.0))
        hs = FunctionHandle(f_shift, Envelope(1.0, 1.0, center=a))
        lhs = apply_Q(spec, hs, 0.4 + a, Q)
        rhs = apply_Q(spec, h, 0.4, Q) * np.exp(1j * 0.6 * 0)  # kernels depend on differences
        assert abs(lhs - rhs) < 1e-10

    def test_complex_spectral_shift_eigenrelation(self):
        # strongly damped spectral argument: the slow tail sits on the
        # negative side and the truncation bookkeeping must follow it
        c = Coupling(1.0)
        eps = 0.1
        shifted = -0.3 - 1j * c.g + 1j * eps
        spec = OperatorSpec(HYP, 1, False, c, shifted)
        pw = plane_wave(0.3, HYP, c)
        got = apply_Q(spec, pw, 0.3, QuadSpec(rel_tol=1e-8, abs_tol=1e-9))
        want = kernel_hatK(shifted - 0.3, c) * complex(pw.fn(0.3))
        assert abs(got - want) <= 1e-8 * abs(want)

    def test_divergence_refusal(self):
        c = Coupling(0.5)
        spec = OperatorSpec(HYP, 1, False, c, 0.0)
        growing = plane_wave(-1j, HYP, c)  # |f| = e^{|t|} beats the kernel at g = 0.5
        with pytest.raises(DivergenceError):
            apply_Q(spec, growing, 0.0, Q)


class TestTwoVariable:
    def test_q2_eigen_factored(self):
        c = Coupling(1.0)
        l1, l2, lam = 0.4, -0.3, 0.55
        delta = l1 - l2
        prof = lambda v: pair_transform(HYP, c, delta, v, Q)
        h = factored_pair_handle(HYP, c, 0.5 * (l1 + l2), delta, Q)
        spec = OperatorSpec(HYP, 2, False, c, lam)
        at = (0.3, -0.45)
        got = apply_Q(spec, h, at, Q)
        psi = np.exp(1j * 0.5 * (l1 + l2) * (at[0] + at[1])) * complex(
            prof(at[0] - at[1])
        )
        want = 2.0 * kernel_hatK(lam - l1, c) * kernel_hatK(lam - l2, c) * psi
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_q2_generic_gaussian_vs_oracle(self):
        # generic (non-factored) route against the fixed-grid 2-D oracle
        c = Coupling(1.0)
        lam = 0.0
        spec = OperatorSpec(HYP, 2, False, c, lam)
        h = FunctionHandle(
            lambda y1, y2: np.exp(-(np.asarray(y1) ** 2) - np.asarray(y2) ** 2),
            Envelope(1.5, 1.5),
        )
        at = (0.0, 0.0)
        got = apply_Q(spec, h, at, Q)

        def full(y1, y2):
            return (
                measure_hyperbolic(y1 - y2, c)
                * kernel_K(at[0] - y1, c)
                * kernel_K(at[0] - y2, c)
                * kernel_K(at[1] - y1, c)
                * kernel_K(at[1] - y2, c)
                * np.exp(-(y1**2) - y2**2)
            )

        oracle = trapezoid_oracle_2d(full, 18.0, 3001)
        assert abs(got - oracle) < 2e-7

    def test_q2_generic_work_ceiling(self, gk_nodes):
        # the generic input is folded onto v = y1 - y2 >= 0 like the factored
        # ones: 40,380 nodes here with first panels doubling through the
        # tails, 90,885 with uniform ones, and per-axis (y1, y2) panels took
        # 227,460
        spec = OperatorSpec(HYP, 2, False, Coupling(1.0), 0.0)
        h = FunctionHandle(lambda y1, y2: np.exp(-y1 * y1 - y2 * y2), Envelope(1.5, 1.5))
        assert abs(apply_Q(spec, h, (0.0, 0.0), Q) - 1.7195589569512637) <= 1e-12
        assert 0 < sum(gk_nodes) <= 48_000

    def test_q2_generic_asymmetric_vs_oracle(self):
        # a handle that is not symmetric in (y1, y2), off center, at a complex
        # spectral value: the fold onto v = y1 - y2 >= 0 takes its symmetric part
        c = Coupling(1.0)
        lam = 0.3 - 0.1j
        at = (0.2, -0.4)
        f = lambda y1, y2: np.exp(-((y1 - 1.0) ** 2) - 2.0 * (y2 - 0.4) ** 2 + 0.3j * y1)
        h = FunctionHandle(f, Envelope(1.0, 1.0, center=0.7, freq=0.3))
        got = apply_Q(OperatorSpec(HYP, 2, False, c, lam), h, at, Q)

        def full(y1, y2):
            kern = kernel_K(at[0] - y1, c) * kernel_K(at[0] - y2, c)
            kern = kern * kernel_K(at[1] - y1, c) * kernel_K(at[1] - y2, c)
            phase = np.exp(1j * lam * (at[0] + at[1] - y1 - y2))
            return measure_hyperbolic(y1 - y2, c) * kern * phase * f(y1, y2)

        assert abs(got - trapezoid_oracle_2d(full, 14.0, 601)) <= 1e-9 * abs(got)

    def test_q2_generic_scalar_only_handle(self):
        # a handle that takes no arrays is mapped node by node and gives the
        # value of the array handle
        c = Coupling(1.0)
        spec = OperatorSpec(HYP, 2, False, c, 0.3)
        q = QuadSpec(rel_tol=1e-4, abs_tol=1e-6)
        at = (0.2, -0.4)
        env = Envelope(1.5, 1.5)
        scalar = FunctionHandle(lambda y1, y2: math.exp(-y1 * y1 - y2 * y2), env)
        array = FunctionHandle(lambda y1, y2: np.exp(-y1 * y1 - y2 * y2), env)
        want = apply_Q(spec, array, at, q)
        assert abs(apply_Q(spec, scalar, at, q) - want) <= 1e-12 * abs(want)

    def test_q2_constant_input_refused(self):
        # measure growth beats the kernels on a non-decaying input
        c = Coupling(1.0)
        spec = OperatorSpec(HYP, 2, False, c, 0.0)
        const = FunctionHandle(lambda y1, y2: np.ones_like(np.asarray(y1)), Envelope())
        with pytest.raises(DivergenceError):
            apply_Q(spec, const, (0.0, 0.0), Q)

    def test_lambda2_builds_wave_function(self):
        c = Coupling(1.0)
        l1, l2 = 0.4, -0.3
        spec = OperatorSpec(HYP, 2, False, c, l2)
        pw = plane_wave(l1, HYP, c)
        at = (0.2, -0.6)
        got = apply_Lambda(spec, pw, at, Q)
        from _frozen import PSI_HR_G1_SAMPLE

        assert abs(got - PSI_HR_G1_SAMPLE) < 1e-9

    def test_lambda_symmetry_in_endpoints(self):
        c = Coupling(0.7)
        spec = OperatorSpec(HYP, 2, False, c, 0.3)
        pw = plane_wave(0.1, HYP, c)
        a = apply_Lambda(spec, pw, (0.5, -0.2), Q)
        b = apply_Lambda(spec, pw, (-0.2, 0.5), Q)
        assert abs(a - b) <= 1e-11 * abs(a)

    def test_relativistic_lambda_matches_wave_function(self):
        # the dual raising operator on a plane wave is the spectral-side
        # eigenfunction, which coincides with the position-side integral under
        # the variable renaming (labels <-> arguments)
        from hypq.wavefn import PositionPoint, SpectralPoint, psi_hr

        c = Coupling(0.9, P12)
        x1, x2 = -0.2, 0.5
        lpt = (0.35, -0.15)
        spec = OperatorSpec(REL, 2, True, c, x2)
        pw = plane_wave(x1, REL, c)
        got = apply_Lambda(spec, pw, lpt, Q)
        want = psi_hr(SpectralPoint(x1, x2), PositionPoint(*lpt), c, REL, Q)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_gamma_lambda_matches_direct_integral(self):
        c = Coupling(1.1)
        x2, x1 = 0.5, -0.2
        l1, l2 = 0.35, -0.15
        spec = OperatorSpec(GAM, 2, True, c, x2)
        pw = plane_wave(x1, GAM, c)
        got = apply_Lambda(spec, pw, (l1, l2), Q)
        from hypq.kernels import _hatK_real_vec

        def integrand(gam):
            return (
                _hatK_real_vec(l1 - gam, c.g)
                * _hatK_real_vec(l2 - gam, c.g)
                * np.exp(1j * (x2 * (l1 + l2 - gam) + x1 * gam))
                / (2 * math.pi)
            )

        direct = integrate_line(
            integrand, DecayProfile(math.pi, math.pi), Q, freq_hint=abs(x1 - x2)
        )
        assert abs(got - direct) <= 1e-10 * abs(direct)


class TestPointShapes:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: apply_Q(_Q2, _GAUSS2, 0.3, Q),
            lambda: apply_Q(_Q2, _GAUSS2, (0.3, 0.1, 0.2), Q),
            lambda: apply_Q(_Q1, _PW, (0.3, 0.1), Q),
            lambda: apply_Q(_Q1, _PW, 0.3 + 0.1j, Q),
            lambda: apply_Q(_Q1, _PW, math.nan, Q),
            lambda: apply_Lambda(_Q2, _PW, 0.3, Q),
            lambda: apply_Lambda(_Q2, _PW, "ab", Q),
            lambda: qq_convolution_kernel(_Q2, 0.4, -0.3, (0.3, -0.5), Q),
            lambda: qq_convolution_kernel(_Q1, 0.4, -0.3, ((0.3, 0.1), 0.2), Q),
        ],
        ids=[
            "Q2-float", "Q2-triple", "Q1-pair", "Q1-complex", "Q1-nan", "Lambda-float",
            "Lambda-string", "QQ2-flat", "QQ1-ragged",
        ],
    )
    def test_mismatched_point_is_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestHandleArity:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: apply_Q(_Q1, FunctionHandle(lambda a, b: np.exp(-a * a - b * b)), 0.3, Q),
            lambda: apply_Lambda(
                _Q2, FunctionHandle(lambda a, b: np.exp(-a * a - b * b)), (0.3, -0.1), Q
            ),
            lambda: apply_Q(
                _Q2, FunctionHandle(lambda y: np.exp(-y * y), Envelope(1.0, 1.0)), (0.3, -0.1), Q
            ),
        ],
        ids=["Q1-two-variable", "Lambda-two-variable", "Q2-one-variable"],
    )
    def test_wrong_arity_is_domain_error(self, call):
        # the handle fails on arrays and again node by node; the error names
        # the arguments the handle takes or misses
        with pytest.raises(DomainError, match="positional argument"):
            call()


class TestPairTransform:
    @pytest.mark.parametrize(
        "v", [[], math.nan, [1.0, math.nan], math.inf], ids=["empty", "nan", "one-nan", "inf"]
    )
    def test_degenerate_separations(self, v):
        # an empty v has an empty profile; a non-finite one has none
        c = Coupling(1.0)
        if np.size(v) == 0:
            assert pair_transform(HYP, c, 0.5, np.array(v), Q).shape == (0,)
            return
        with pytest.raises(DomainError):
            pair_transform(HYP, c, 0.5, v, Q)

    @pytest.mark.parametrize("delta", [math.nan, complex(0.5, math.inf)])
    def test_non_finite_delta(self, delta):
        with pytest.raises(DomainError):
            pair_transform(GAM, Coupling(1.0), delta, 0.3, Q)

    def test_elementary_value(self):
        assert abs(pair_transform(HYP, Coupling(1.0), 0.0, 0.0, Q) - 2.0) < 1e-12

    def test_even_in_separation(self):
        c = Coupling(0.8)
        a = pair_transform(HYP, c, 0.9, 1.3, Q)
        b = pair_transform(HYP, c, 0.9, -1.3, Q)
        assert a == b

    def test_batch_matches_scalar(self):
        c = Coupling(1.2)
        vs = np.array([0.0, 0.7, 2.1])
        batch = pair_transform(HYP, c, 0.5, vs, Q)
        singles = [pair_transform(HYP, c, 0.5, float(v), Q) for v in vs]
        assert np.max(np.abs(batch - np.array(singles))) < 1e-11

    def test_gamma_batch_matches_scalar_to_large_separation(self):
        c = Coupling(1.0)
        vs = np.linspace(-345.0, 345.0, 47)
        batch = pair_transform(GAM, c, 0.5, vs, Q)
        singles = np.array([pair_transform(GAM, c, 0.5, float(v), Q) for v in vs])
        assert np.all(np.abs(batch - singles) <= 1e-11 * np.abs(singles))

    @pytest.mark.parametrize(
        "family,g,delta,v",
        [
            (GAM, 1.0, 3.0, 22.400000000000002),
            (GAM, 0.7, 5.0, 62.080000000000005),
            (HYP, 1.3, 1.7, 122.99427296207558),
        ],
    )
    def test_half_separation_one_ulp_past_last_edge(self, family, g, delta, v):
        # at these separations the panel width 8 / (kappa |delta|) is not a
        # power of two, and |v|/2 is one ulp above the float value of the
        # last edge computed to reach it: the array path must still end each
        # v's last panel at y = 0, as the scalar path does
        c = Coupling(g)
        batch = pair_transform(family, c, delta, np.array([1.0, v]), Q)
        singles = np.array([pair_transform(family, c, delta, x, Q) for x in (1.0, v)])
        assert np.all(np.abs(batch - singles) <= 1e-12 * np.abs(singles))

    def test_gamma_kernel_work_ceiling(self, monkeypatch):
        # one Khat pair per node of each v's graded rule (1,040,128 points);
        # two full dense len(v) x len(y) matrices would be 11.92 M points
        from hypq import kernels

        points = [0]
        direct = kernels._ln_hatK_real_vec

        def counted(x, g):
            points[0] += np.size(x)
            return direct(x, g)

        monkeypatch.setattr(kernels, "_ln_hatK_real_vec", counted)
        q = QuadSpec(rel_tol=1e-8, abs_tol=1e-9)
        pair_transform(GAM, Coupling(1.0), 0.5, np.linspace(0.01, 345.0, 1620), q)
        assert 0 < points[0] <= 1_250_000

    @pytest.mark.parametrize("delta", [0.5, 2.0, 5.0])
    def test_gamma_g1_closed_form(self, delta):
        # Khat = pi / cosh(pi l / 2) at g = 1, whose profile is
        # 2 pi sin(delta v / 2) / (sinh(pi v / 2) sinh(delta)); the error is
        # taken relative to that envelope without the sine, so the zeros of
        # the sine do not divide it
        v = np.linspace(0.01, 345.0, 1620)
        got = pair_transform(GAM, Coupling(1.0), delta, v, Q)
        scale = 2.0 * math.pi / (np.sinh(0.5 * math.pi * v) * math.sinh(delta))
        assert np.all(np.abs(got - scale * np.sin(0.5 * delta * v)) <= 1e-10 * scale)

    @pytest.mark.parametrize(
        "family,c",
        [
            (HYP, Coupling(0.7)),
            (HYP, Coupling(1.3)),
            (GAM, Coupling(0.3)),
            (GAM, Coupling(0.7)),
            (GAM, Coupling(1.3)),
            (REL, Coupling(0.8, Periods(1.0, 1.7))),
            (REL, Coupling(1.9, Periods(1.0, 1.7))),
        ],
    )
    def test_profile_against_line_integral(self, family, c):
        # the unfolded integral over the whole y line on fine uniform
        # Gauss-Legendre panels, at real and complex separations, to 1e-12
        # of the integral of the integrand's modulus (the profile's envelope)
        ops = _Ops(family, family is not HYP, c)
        x, w = np.polynomial.legendre.leggauss(16)
        for delta in (0.05, 0.3, 1.0, 0.4 - 0.2j, 1.0 + 0.3j, 2.0 + 0.6j):
            kd = ops.kappa * delta
            cut = 0.5 + 60.0 / (2.0 * ops.k_rate - abs(kd.imag))
            for v in (0.0, 0.7, 3.0, 9.0, 30.0):
                n = int(math.ceil((v + 2.0 * cut) / 0.05))
                half = 0.5 * (v + 2.0 * cut) / n
                mid = -0.5 * v - cut + half * (2.0 * np.arange(n) + 1.0)
                y = (mid[:, None] + half * x).ravel()
                ln = ops.ln_kernel(0.5 * v - y) + ops.ln_kernel(0.5 * v + y)
                terms = half * np.tile(w, n) * np.exp(ln + 1j * kd * y)
                ref = ops.two_pi_inv * complex(math.fsum(terms.real), math.fsum(terms.imag))
                envelope = ops.two_pi_inv * math.fsum(np.abs(terms))
                got = pair_transform(family, c, delta, v, Q)
                assert abs(got - ref) <= 1e-12 * envelope, (delta, v)


class TestKernelConvolutions:
    @pytest.mark.parametrize(
        "family,c",
        [
            (HYP, Coupling(1.1)),
            (GAM, Coupling(0.7)),
            (REL, Coupling(0.8, P12)),
        ],
    )
    def test_n1_exchange_symmetry(self, family, c):
        spec = OperatorSpec(family, 1, family is not HYP, c, 0.0)
        a = qq_convolution_kernel(spec, 0.8, -0.2, (0.3, -0.5), Q)
        b = qq_convolution_kernel(spec, -0.2, 0.8, (0.3, -0.5), Q)
        assert abs(a - b) <= 1e-6 * abs(a)

    def test_n1_change_of_variables(self):
        # s -> z + x - t maps the convolution onto itself with the kernels
        # swapped; evaluate both integrand orderings explicitly
        c = Coupling(1.0)
        lam, mu, x, z = 0.8, -0.2, 0.3, -0.5

        def direct(s):
            return (
                np.exp(1j * (lam * (x - s) + mu * (s - z)))
                * kernel_K(x - s, c)
                * kernel_K(s - z, c)
            )

        def substituted(t):
            s = z + x - t
            return (
                np.exp(1j * (lam * (x - s) + mu * (s - z)))
                * kernel_K(x - s, c)
                * kernel_K(s - z, c)
            )

        d = DecayProfile(2.0, 2.0, center=0.5 * (x + z))
        a = integrate_line(direct, d, Q, freq_hint=1.0)
        b = integrate_line(substituted, d, Q, freq_hint=1.0)
        assert abs(a - b) < 1e-11

    def test_n2_symmetry_g1(self):
        c = Coupling(1.0)
        spec = OperatorSpec(HYP, 2, False, c, 0.0)
        ends = ((0.3, -0.2), (0.5, -0.6))
        a = qq_convolution_kernel(spec, 0.4, -0.3, ends, Q)
        b = qq_convolution_kernel(spec, -0.3, 0.4, ends, Q)
        assert abs(a - b) <= 1e-6 * abs(a)

    def test_n2_symmetry_gamma(self):
        c = Coupling(1.0)
        spec = OperatorSpec(GAM, 2, True, c, 0.0)
        ends = ((0.3, -0.2), (0.5, -0.6))
        a = qq_convolution_kernel(spec, 0.4, -0.3, ends, Q)
        b = qq_convolution_kernel(spec, -0.3, 0.4, ends, Q)
        assert abs(a - b) <= 1e-6 * abs(a)

    def test_strip_violation(self):
        c = Coupling(0.5)
        spec = OperatorSpec(HYP, 1, False, c, 0.0)
        with pytest.raises(DivergenceError):
            qq_convolution_kernel(spec, 1.2j, 0.0, (0.0, 0.5), Q)


class TestExchangeRelations:
    def test_half_strip_enforced(self):
        # the exchange relation converges for Im(lam - rho) strictly inside
        # (-2 strip, 0): Q(lam) on the plane wave of label rho' = rho - i strip
        # is refused at both edges and taken in the middle, in every family
        for family, c in ((HYP, Coupling(1.0)), (GAM, Coupling(1.0)), (REL, Coupling(0.8, P12))):
            strip = _Ops(family, True, c).strip
            spec = OperatorSpec(family, 1, family is not HYP, c, 0.3)
            for im in (0.0, -2.0 * strip, -strip):
                rho = 0.2 - 1j * im  # Im(lam - rho) = im
                pw = plane_wave(rho - 1j * strip, family, c)
                if im == -strip:
                    assert np.isfinite(apply_Q(spec, pw, 0.4, Q))
                    continue
                with pytest.raises(DivergenceError):
                    apply_Q(spec, pw, 0.4, Q)

    def test_n1_degenerate_is_eigenrelation(self):
        # the one-variable raising operator multiplies by a plane wave, so the
        # exchange relation collapses to the shifted eigenvalue relation
        c = Coupling(1.0)
        mu = 0.2 + 0.6j
        shifted = mu - 1j * c.g
        spec = OperatorSpec(HYP, 1, False, c, 0.5)
        pw = plane_wave(shifted, HYP, c)
        got = apply_Q(spec, pw, 0.4, Q)
        want = kernel_hatK(0.5 - shifted, c) * complex(pw.fn(0.4))
        assert abs(got - want) <= 1e-9 * abs(want)


class TestFamilyRecord:
    # the family's kernel as a function of (argument, coupling)
    _KERNEL = {HYP: kernel_K_complex, GAM: kernel_hatK, REL: kernel_Kg}

    @pytest.mark.parametrize(
        "family, dual, c, kc",
        [
            (HYP, False, Coupling(0.7), Coupling(0.7)),
            (GAM, True, Coupling(1.3), Coupling(1.3)),
            (REL, True, Coupling(0.8, P12), Coupling(0.8, P12)),
            # the non-dual relativistic operator carries the dual coupling
            (REL, False, Coupling(0.8, P12), Coupling(1.0 + math.sqrt(2.0) - 0.8, P12)),
        ],
        ids=["hyperbolic", "gamma", "relativistic-dual", "relativistic"],
    )
    def test_record_facts_match_the_kernels(self, family, dual, c, kc):
        ops = _Ops(family, dual, c)
        kernel = self._KERNEL[family]
        assert ops.kernel_coupling.g == pytest.approx(kc.g, rel=1e-15)
        for x in (0.0, 0.7, 2.5):
            want = kernel(x, kc)
            assert abs(np.exp(ops.ln_kernel(np.array([x])))[0] - want) <= 1e-9 * abs(want)
        assert abs(ops.strip * ops.kappa - ops.k_rate) <= 1e-15 * ops.k_rate
        assert ops.mu_rate == 2.0 * ops.k_rate
        # the ln-kernel decays at k_rate; by Stirling ln Khat also carries
        # (g - 1) ln|x| and an O(1/x^2) term (1.3e-6 on this slope at g = 1.3)
        ln30, ln60 = ops.ln_kernel(np.array([30.0, 60.0]))
        slope = (ln60 - ln30) / 30.0
        bound = abs(c.g - 1.0) * math.log(2.0) / 30.0 + 1e-5 if family is GAM else 1e-12
        assert abs(slope + ops.k_rate) <= bound
        # the nearest kernel singularity sits at i pole
        if family is HYP:
            assert abs(kernel(1j * ops.pole * (1.0 - 1e-9), kc)) > 1e5
        else:
            with pytest.raises(KernelPoleError):
                kernel(1j * ops.pole, kc)


_C1 = Coupling(1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: measure("bogus", 0.3, 0.0, _C1),
        lambda: eigenvalue("bogus", 0.3, 0.0, _C1),
        lambda: OperatorSpec("bogus", 1, False, _C1, 0.0),
        lambda: pair_transform("bogus", _C1, 0.5, 0.3),
        lambda: plane_wave(0.1, "bogus", _C1),
        lambda: psi_hr(SpectralPoint(0.4, -0.3), PositionPoint(0.2, -0.6), _C1, "bogus"),
    ],
    ids=["measure", "eigenvalue", "OperatorSpec", "pair_transform", "plane_wave", "psi_hr"],
)
def test_unknown_family_is_domain_error(call):
    with pytest.raises(DomainError, match="valid: .*hyperbolic.*gamma.*relativistic"):
        call()


@pytest.mark.parametrize(
    "family,c", [(HYP, Coupling(0.8)), (GAM, Coupling(0.8)), (REL, Coupling(0.8, P12))]
)
def test_far_points_are_refused_cheaply(family, c):
    # layouts that grow with the point or the label: each gives a finite
    # value or a HypqError, with no numpy warning, quickly and in little memory
    import time
    import tracemalloc
    import warnings

    from hypq.errors import HypqError

    spec = OperatorSpec(family, 1, family is not HYP, c, 0.0)
    calls = [lambda at=at: apply_Q(spec, plane_wave(0.3, family, c), at) for at in (1e8, 1e150, 1.7e308)]
    calls.append(lambda: qq_convolution_kernel(spec, 0.0, 0.0, (1e8, -1e8)))
    calls += [
        lambda d=d, v=v: pair_transform(family, c, d, v)
        for d, v in ((1e6, 0.5), (60.0, 1e6), (1.7e308, 0.5), (0.3, 1e300))
    ]
    calls.append(lambda: integrate_line(lambda x: np.exp(-x * x), DecayProfile(1e-3, 1e-3), freq_hint=1e9))
    for i, call in enumerate(calls):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.isfinite(call()), i
        except HypqError:
            pass
        finally:
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert seconds < 1.0 and peak < 50e6, (i, seconds, peak)
