import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypq.errors import (
    DivergenceError,
    DomainError,
    GammaOverflowError,
    HypqError,
    KernelPoleError,
)
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
from hypq.wavefn import PositionPoint, SpectralPoint, psi_hr, psi_mb

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


class TestHandles:
    def test_plain_handle_is_generic(self):
        # a hand-made handle has fn and envelope only; with a kind tag and a
        # meta dict it used to reach the factored branch, and apply_Q raised
        # KeyError (no label_plus) or TypeError (a malformed meta)
        f2 = lambda y1, y2: np.exp(-y1 * y1 - y2 * y2)
        h = FunctionHandle(f2, Envelope(2.0, 2.0))
        assert [fl.name for fl in dataclasses.fields(h)] == ["fn", "envelope"]
        assert not hasattr(h, "kind") and not hasattr(h, "meta")
        for extra in ({"kind": "factored_pair"}, {"kind": "factored_pair", "meta": {"profile": 1}}):
            with pytest.raises(TypeError):
                FunctionHandle(f2, Envelope(2.0, 2.0), **extra)
        spec = OperatorSpec(HYP, 2, False, Coupling(1.0), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(apply_Q(spec, h, (0.1, 0.2)))

    def test_factored_pair_takes_the_pair_branch(self):
        # the pair branch reads the profile on the v axis and never calls fn
        c = Coupling(1.0)
        h = factored_pair_handle(HYP, c, 0.05, 0.7, Q)
        assert isinstance(h, FunctionHandle)

        def unused(y1, y2):
            raise AssertionError("the factored pair's fn was called")

        spec = OperatorSpec(HYP, 2, False, c, 0.5)
        got = apply_Q(spec, dataclasses.replace(h, fn=unused), (0.1, -0.2), Q)
        assert got == apply_Q(spec, h, (0.1, -0.2), Q)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Envelope("1", 1.0),
            lambda: Envelope(None, 1.0),
            lambda: Envelope(1.0, math.inf),
            lambda: Envelope(center=math.nan),
            lambda: Envelope(freq=1j),
            lambda: FunctionHandle(None, Envelope()),
            lambda: FunctionHandle(abs, (1.0, 1.0)),
        ],
        ids=["string", "None", "inf", "nan", "complex", "fn-None", "envelope-tuple"],
    )
    def test_bad_field_is_domain_error(self, make):
        # Envelope("1", 1.0) or Envelope(None, 1.0) used to reach apply_Q and
        # raise a raw TypeError there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                make()


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

    def test_kernel_calls_stay_small(self, monkeypatch):
        # at v = 1000 one v's panels alone need more than one kernel call:
        # they are split across calls like any others
        from hypq import operators

        points = []
        direct = operators.ln_cosh

        def counted(x):
            points.append(np.size(x))
            return direct(x)

        monkeypatch.setattr(operators, "ln_cosh", counted)
        c, vs = Coupling(1.0), np.array([1.0, 1000.0, 3.0])
        batch = pair_transform(HYP, c, 5.0, vs, Q)
        assert sum(points) > 8_190
        assert max(points) <= 8_190
        singles = np.array([pair_transform(HYP, c, 5.0, float(v), Q) for v in vs])
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

    @pytest.mark.parametrize("d_im", [1.5, 1.9])
    def test_complex_delta_near_the_strip_edge(self, d_im):
        # at Im(delta) -> 2 g the cosine grows almost as fast as the kernel
        # pair decays, over a long tail: formed apart from the kernel logs it
        # overflowed near y = 450 while their exponential underflowed, and the
        # profile was nan.  The profile times the plane factor is psi_MB.
        c, delta = Coupling(1.0), 0.7 + 1j * d_im
        sp = SpectralPoint(0.4 + 0.5j * d_im, -0.3 - 0.5j * d_im)
        vs = np.array([0.8, -2.3, 0.0, 7.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = pair_transform(HYP, c, delta, vs, Q)
            singles = [pair_transform(HYP, c, delta, float(v), Q) for v in vs]
            for v, got, one in zip(vs, batch, singles):
                pp = PositionPoint(0.2, 0.2 - v)
                want = psi_mb(sp, pp, c, GAM, Q) / np.exp(1j * sp.plus * pp.xsum)
                assert np.isfinite(got) and np.isfinite(one)
                assert abs(got - want) <= 1e-12 * abs(want), v
                assert abs(one - want) <= 1e-12 * abs(want), v

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
    # arity 2: each inner integral of one batch is within budget, their sum is not
    spec2 = OperatorSpec(family, 2, family is not HYP, c, 0.0)
    calls += [lambda at=at: apply_Q(spec2, _GAUSS2, at) for at in ((-1e4, 0.0), (-3e3, 3e3))]
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


@pytest.mark.parametrize("x", [1124.0, 1130.0])
def test_integral_past_double_range_is_overflow_error(x):
    # every panel of the kernel's integral is finite, but their sum is past
    # the double range: a GammaOverflowError, not fsum's bare OverflowError
    # (1120 gives 1.9e307, 1135 a NonFiniteSampleError)
    spec = OperatorSpec(HYP, 1, False, Coupling(0.375), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GammaOverflowError):
            qq_convolution_kernel(spec, -1j, -1j, (x, 0.0))


# ---------------------------------------------------------------------------
# the array entry points at any finite point: a finite value or a HypqError
# ---------------------------------------------------------------------------

_FAR = st.one_of(st.floats(-50.0, 50.0), st.floats(allow_nan=False, allow_infinity=False))
_COUPLED = st.one_of(
    st.tuples(st.sampled_from([HYP, GAM]), st.floats(0.3, 2.5).map(Coupling)),
    st.tuples(st.just(REL), st.floats(0.3, 2.0).map(lambda g: Coupling(g, P12))),
)


def _finite_or_refused(call):
    """call() is finite, or refused with a HypqError, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except HypqError:
            return
    assert np.all(np.isfinite(out)), out


@given(
    _COUPLED,
    st.floats(-60.0, 60.0),
    st.floats(-0.99, 0.99),
    st.lists(_FAR, min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_pair_transform_is_finite_or_refused(coupled, d_re, edge, vs):
    # complex delta up to 0.99 of the strip edge |Im kappa delta| < 2 k
    family, c = coupled
    ops = _Ops(family, True, c)
    delta = complex(d_re, edge * 2.0 * ops.k_rate / ops.kappa)
    _finite_or_refused(lambda: pair_transform(family, c, delta, np.array(vs), Q))


@given(_COUPLED, st.complex_numbers(max_magnitude=3.0), st.floats(-3.0, 3.0), _FAR)
@settings(max_examples=40, deadline=None)
def test_apply_Q_arity_1_is_finite_or_refused(coupled, spectral, label, at):
    family, c = coupled
    spec = OperatorSpec(family, 1, family is not HYP, c, spectral)
    _finite_or_refused(lambda: apply_Q(spec, plane_wave(label, family, c), at, Q))


@given(_COUPLED, st.floats(-3.0, 3.0), st.tuples(_FAR, _FAR))
@settings(max_examples=15, deadline=None)
def test_apply_Q_arity_2_is_finite_or_refused(coupled, spectral, at):
    family, c = coupled
    spec = OperatorSpec(family, 2, family is not HYP, c, spectral)
    _finite_or_refused(lambda: apply_Q(spec, _GAUSS2, at, Q))


@given(
    _COUPLED,
    st.complex_numbers(max_magnitude=3.0),
    st.complex_numbers(max_magnitude=3.0),
    st.tuples(_FAR, _FAR),
)
@settings(max_examples=40, deadline=None)
def test_qq_convolution_kernel_is_finite_or_refused(coupled, first, second, endpoints):
    family, c = coupled
    spec = OperatorSpec(family, 1, family is not HYP, c, 0.0)
    _finite_or_refused(lambda: qq_convolution_kernel(spec, first, second, endpoints, Q))


@given(
    _COUPLED,
    st.complex_numbers(max_magnitude=3.0),
    st.complex_numbers(max_magnitude=3.0),
    st.tuples(st.tuples(_FAR, _FAR), st.tuples(_FAR, _FAR)),
)
@settings(max_examples=15, deadline=None)
def test_qq_convolution_kernel_arity_2_is_finite_or_refused(coupled, first, second, endpoints):
    family, c = coupled
    spec = OperatorSpec(family, 2, family is not HYP, c, 0.0)
    _finite_or_refused(lambda: qq_convolution_kernel(spec, first, second, endpoints, Q))


@pytest.mark.parametrize(
    "family, c, z",
    [(HYP, Coupling(1.0), 300.0), (GAM, Coupling(1.0), 400.0), (REL, Coupling(1.0, P12), 400.0)],
)
def test_qq_arity_2_overflowing_measure_is_refused(family, c, z):
    # mu(z1 - z2) is past the double range while the plane integral
    # underflows to 0: their product is unknown, so it is refused
    spec = OperatorSpec(family, 2, family is not HYP, c, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GammaOverflowError):
            qq_convolution_kernel(spec, 0.2, -0.1, ((0.0, 0.0), (z, -z)))
