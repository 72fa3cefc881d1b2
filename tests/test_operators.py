import math

import numpy as np
import pytest

from hypq.errors import DivergenceError, DomainError
from hypq.kernels import (
    Coupling,
    KernelFamily,
    eigenvalue,
    kernel_hatK,
    kernel_K,
    measure_hyperbolic,
)
from hypq.operators import (
    Envelope,
    FunctionHandle,
    OperatorSpec,
    apply_Lambda,
    apply_Q,
    factored_pair_handle,
    pair_transform,
    pair_transform_rate,
    plane_wave,
    qlambda_exchange_check,
    qq_convolution_kernel,
)
from hypq.quad import DecayProfile, QuadSpec, integrate_line, oracle_trapezoid_2d
from hypq.special import Periods

HYP, GAM, REL = KernelFamily.HYPERBOLIC, KernelFamily.GAMMA, KernelFamily.RELATIVISTIC
Q = QuadSpec()
P12 = Periods(1.0, math.sqrt(2.0))


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
        h = factored_pair_handle(
            HYP, c, 0.5 * (l1 + l2), prof, pair_transform_rate(HYP, c, delta),
            profile_freq=abs(delta) / 2,
        )
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

        oracle = oracle_trapezoid_2d(full, 18.0, 3001)
        assert abs(got - oracle) < 2e-7

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


class TestPairTransform:
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

    def test_gamma_kernel_work_ceiling(self, monkeypatch):
        # each Khat factor is evaluated on the node prefix its |v| needs;
        # two full dense len(v) x len(y) matrices would be 11.92 M points
        from hypq import operators

        points = [0]
        direct = operators._hatK_real_vec

        def counted(x, g):
            points[0] += np.size(x)
            return direct(x, g)

        monkeypatch.setattr(operators, "_hatK_real_vec", counted)
        q = QuadSpec(rel_tol=1e-8, abs_tol=1e-9)
        pair_transform(GAM, Coupling(1.0), 0.5, np.linspace(0.01, 345.0, 1620), q)
        assert 0 < points[0] <= 4_500_000


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
    def test_hyperbolic_two_variable(self):
        c = Coupling(1.0)
        lhs, rhs = qlambda_exchange_check(
            HYP, 0.5, 0.2 + 0.5j, (0.3, -0.4), c, Q, test_label=0.1
        )
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)

    def test_gamma_shifted_plane_wave(self):
        lhs, rhs = qlambda_exchange_check(GAM, 0.3, 0.1 + 0.4j, 0.7, Coupling(1.0), Q)
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)

    def test_relativistic_shifted_plane_wave(self):
        c = Coupling(0.8, P12)
        lhs, rhs = qlambda_exchange_check(REL, 0.3, 0.1 + 0.3j, 0.45, c, Q)
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)

    def test_half_strip_enforced(self):
        with pytest.raises(DivergenceError):
            qlambda_exchange_check(HYP, 0.5, 0.2, (0.3, -0.4), Coupling(1.0), Q)

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
