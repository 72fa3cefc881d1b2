import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypq.errors import DomainError, KernelPoleError
from hypq.kernels import (
    Coupling,
    KernelFamily,
    eigenvalue,
    hatK_asymptotic,
    kernel_hatK,
    kernel_K,
    kernel_K_complex,
    kernel_Kg,
    kg_real_evaluator,
    ln_measure_gamma,
    ln_measure_relativistic,
    measure,
    measure_gamma,
    measure_relativistic,
)
from hypq.quad import DecayProfile, QuadSpec, integrate_line
from hypq.special import Periods, _gamma_vec, double_sine


HYP, GAM, REL = KernelFamily.HYPERBOLIC, KernelFamily.GAMMA, KernelFamily.RELATIVISTIC
Q = QuadSpec()
P12 = Periods(1.0, math.sqrt(2.0))


class TestCoupling:
    def test_validation(self):
        with pytest.raises(DomainError):
            Coupling(-1.0)
        with pytest.raises(DomainError):
            Coupling(3.0, Periods(1.0, 1.0))

    @given(st.floats(0.05, 2.3))
    @settings(max_examples=40, deadline=None)
    def test_gstar_involution(self, g):
        c = Coupling(g, P12)
        assert c.dual().dual().g == g
        assert c.dual().gstar() == g

    def test_gstar_requires_periods(self):
        with pytest.raises(DomainError):
            Coupling(1.0).gstar()


class TestHyperbolicKernel:
    def test_values(self):
        c = Coupling(1.0)
        assert kernel_K(0.0, c) == 1.0
        assert kernel_K(1.0, c) == pytest.approx(1.0 / math.cosh(1.0), rel=1e-14)

    def test_evenness(self):
        c = Coupling(0.8)
        assert kernel_K(1.3, c) == kernel_K(-1.3, c)

    def test_bound(self):
        for g in (0.5, 1.0, 1.7):
            c = Coupling(g)
            x = np.linspace(-30, 30, 2001)
            assert np.all(kernel_K(x, c) * np.exp(g * np.abs(x)) <= 2.0**g + 1e-12)

    def test_complex_matches_real(self):
        c = Coupling(1.2)
        assert abs(kernel_K_complex(0.9 + 0j, c) - kernel_K(0.9, c)) < 1e-14


class TestGammaKernel:
    def test_value_at_origin(self):
        assert kernel_hatK(0.0, Coupling(1.0)) == pytest.approx(math.pi, rel=1e-13)

    def test_evenness(self):
        c = Coupling(1.4)
        a = kernel_hatK(0.9, c)
        b = kernel_hatK(-0.9, c)
        assert abs(a - b) < 1e-13 * abs(a)

    def test_g1_closed_form(self):
        lam = 0.6
        got = kernel_hatK(lam, Coupling(1.0))
        assert abs(got - math.pi / math.cosh(math.pi * lam / 2.0)) < 1e-13

    def test_pole(self):
        with pytest.raises(KernelPoleError):
            kernel_hatK(1j * (1.0 + 2.0), Coupling(1.0))

    def test_asymptotic_threshold_and_trend(self):
        c = Coupling(1.5)
        errs = []
        for mu in (40.0, 80.0):
            exact = kernel_hatK(-mu, c)
            asym = hatK_asymptotic(0.0, mu, c)
            errs.append(abs(exact - asym) / abs(asym))
        assert errs[0] < 5e-2
        assert errs[1] < errs[0]

    def test_asymptotic_g1_elementary(self):
        # at unit coupling the kernel is pi/cosh and the asymptote 2 pi e^(...)
        d = -12.0
        exact = math.pi / math.cosh(math.pi * d / 2.0)
        asym = 2.0 * math.pi * math.exp(math.pi * d / 2.0)
        assert abs(exact / asym - 1.0) < 1e-15
        got = hatK_asymptotic(0.0, 12.0, Coupling(1.0))
        assert abs(got - asym) < 1e-13 * abs(asym)


class TestFourierPair:
    @pytest.mark.parametrize("g", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("lam", [0.0, 0.7, 2.1])
    def test_forward(self, g, lam):
        c = Coupling(g)
        v = integrate_line(
            lambda z: np.exp(1j * lam * z) * kernel_K(z, c),
            DecayProfile(g, g),
            Q,
            freq_hint=abs(lam),
        )
        assert abs(v - kernel_hatK(lam, c)) < 1e-8

    @pytest.mark.parametrize("z0", [0.0, 0.9])
    def test_inverse(self, z0):
        from hypq.kernels import _hatK_real_vec

        for g in (0.5, 1.0, 1.5):
            v = integrate_line(
                lambda lam: _hatK_real_vec(lam, g)
                * np.exp(-1j * lam * z0)
                / (2 * math.pi),
                DecayProfile(math.pi / 2, math.pi / 2),
                Q,
                freq_hint=abs(z0),
            )
            assert abs(v - kernel_K(z0, Coupling(g))) < 1e-8


class TestRelativisticKernel:
    def test_evenness(self):
        c = Coupling(0.9, P12)
        a = kernel_Kg(0.5, c)
        b = kernel_Kg(-0.5, c)
        assert abs(a - b) < 1e-12 * abs(a)

    def test_origin_value(self):
        c = Coupling(1.0, Periods(1.0, 1.0))
        direct = 1.0 / double_sine(0.5, Periods(1.0, 1.0)) ** 2
        assert abs(kernel_Kg(0.0, c) - direct) < 1e-12 * abs(direct)

    def test_pole_raises(self):
        # S2(g/2 + i lam) vanishes at lam = i g/2 (lattice zero at 0)
        c = Coupling(0.8, P12)
        with pytest.raises(KernelPoleError):
            kernel_Kg(0.5j * c.g, c)

    def test_decay_modulus(self):
        c = Coupling(0.8, P12)
        kap = 2 * math.pi / P12.product
        lam = 12.0
        v = kernel_Kg(lam, c) * np.exp(kap * lam * c.gstar() / 2.0)
        assert abs(abs(v) - 1.0) < 1e-8

    def test_fast_evaluator_matches_direct(self):
        # validates the piecewise-Chebyshev accelerator and its asymptotic
        # switch against the double-sine route
        for g, p in ((0.8, P12), (1.3, Periods(0.7, 1.9)), (0.45, Periods(1.0, 1.0))):
            c = Coupling(g, p)
            ev = kg_real_evaluator(c)
            rng = np.random.RandomState(123)
            xs = np.concatenate([rng.uniform(0, 12, 40), [0.0, 25.0]])
            direct = np.array([kernel_Kg(float(x), c).real for x in xs])
            assert np.max(np.abs(ev(xs) / direct - 1.0)) < 1e-9

    def test_gamma_ln_proxy_matches_direct(self):
        # the real-axis evaluator against the complex Gamma route; beyond
        # |x| ~ 440 the complex product underflows
        from hypq.kernels import _hatK_vec, hatK_ln_evaluator

        for g in (0.45, 1.0, 1.6, 3.5):
            ev = hatK_ln_evaluator(g)
            rng = np.random.RandomState(5)
            xs = np.concatenate([rng.uniform(-400, 400, 100), [0.0, 1e-3, 400.0]])
            direct = np.log(_hatK_vec(xs, g).real)
            assert np.max(np.abs(ev(xs) - direct)) < 1e-10

    def test_hyperbolic_beta_integral(self):
        c = Coupling(0.8, P12)
        kap = 2 * math.pi / P12.product
        rate = math.pi * c.gstar() / P12.product
        ev = kg_real_evaluator(c)
        s2 = double_sine(c.gstar(), P12)
        for x in (0.0, 0.4, 1.1):
            v = integrate_line(
                lambda z: np.exp(1j * kap * x * z) * ev(z),
                DecayProfile(rate, rate),
                Q,
                freq_hint=kap * abs(x),
            )
            rhs = math.sqrt(P12.product) * s2 * kernel_Kg(x, c.dual())
            assert abs(v - rhs) < 1e-7


class TestRealAxisGammaCore:
    """ln |Gamma(a + ib)|^2 against closed forms at a = 1/2, 1, 3/2."""

    @staticmethod
    def _ln_cosh(x):
        x = np.abs(x)
        return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    def test_closed_forms(self, a):
        from hypq.kernels import _ln_abs_gamma_sq_real

        b = np.linspace(-256.0, 256.0, 2048)  # even count: no b = 0
        pb = math.pi * b
        if a == 0.5:
            want = math.log(math.pi) - self._ln_cosh(pb)
        elif a == 1.0:
            # pi b / sinh(pi b)
            ln_sinh = np.abs(pb) + np.log1p(-np.exp(-2.0 * np.abs(pb))) - math.log(2.0)
            want = np.log(np.abs(pb)) - ln_sinh
        else:
            want = np.log(0.25 + b * b) + math.log(math.pi) - self._ln_cosh(pb)
        got = _ln_abs_gamma_sq_real(a, b)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_scalar_argument(self):
        from hypq.kernels import _ln_abs_gamma_sq_real

        assert _ln_abs_gamma_sq_real(0.5, 0.0) == pytest.approx(math.log(math.pi), rel=1e-15)


class TestMeasures:
    def test_zeros_at_coincidence(self):
        c = Coupling(1.0)
        cr = Coupling(0.8, P12)
        assert measure(HYP, 0.5, 0.5, c) == 0.0
        assert measure(GAM, 0.5, 0.5, c) == 0.0
        assert measure(REL, 0.5, 0.5, cr) == 0.0

    def test_hyperbolic_value_and_bound(self):
        c = Coupling(0.9)
        assert measure(HYP, 1.0, 0.0, c) == pytest.approx(
            math.sinh(1.0) ** 1.8, rel=1e-13
        )
        x = np.linspace(-30, 30, 2001)[::100]
        m = np.array([measure(HYP, float(v), 0.0, c) for v in x])
        bound = 2.0 ** (-2 * c.g) * np.exp(2 * c.g * np.abs(x))
        assert np.all(m <= bound * (1.0 + 1e-12))

    def test_relativistic_vs_double_sine_product(self):
        cr = Coupling(0.8, Periods(1.0, 1.0))
        d = 0.7
        got = measure(REL, d, 0.0, cr)
        p = Periods(1.0, 1.0)
        direct = (
            double_sine(1j * d, p)
            * double_sine(-1j * d, p)
            * double_sine(cr.g + 1j * d, p)
            * double_sine(cr.g - 1j * d, p)
        )
        assert abs(got - direct) < 1e-10 * abs(direct)

    def test_log_forms_match(self):
        c = Coupling(0.8)
        cr = Coupling(0.9, P12)
        v = np.array([0.4, 1.1, 3.0])
        # the gamma measure against the complex Gamma route
        pref = (2 ** (1 - c.g) * math.gamma(c.g)) ** 2
        direct = pref / np.abs(_gamma_vec(c.g + 0.5j * v) * _gamma_vec(0.5j * v)) ** 2
        assert np.allclose(np.exp(ln_measure_gamma(v, c)), direct, rtol=1e-12)
        assert np.allclose(measure_gamma(v, c), direct, rtol=1e-12)
        assert np.allclose(
            np.exp(ln_measure_relativistic(v, cr)), measure_relativistic(v, cr), rtol=1e-12
        )

    def test_gamma_measure_closed_form(self):
        # (2^(1-g) Gamma(g))^2 / (Gamma(g +- id/2) Gamma(+- id/2))
        from hypq.special import complex_gamma

        g, d = 0.8, 1.3
        c = Coupling(g)
        pref = (2 ** (1 - g) * complex_gamma(g)) ** 2
        direct = pref / (
            complex_gamma(g + 0.5j * d)
            * complex_gamma(g - 0.5j * d)
            * complex_gamma(0.5j * d)
            * complex_gamma(-0.5j * d)
        )
        assert abs(measure(GAM, d, 0.0, c) - direct.real) < 1e-12 * abs(direct)


class TestConcurrency:
    def test_threaded_evaluations_consistent(self):
        # pure functions + lock-guarded caches: concurrent use must agree
        # with sequential results bit for bit
        from concurrent.futures import ThreadPoolExecutor

        import hypq.kernels as K

        K._kg_cache.clear()
        c = Coupling(0.85, P12)
        xs = np.linspace(-6, 6, 101)

        def job(_):
            return kg_real_evaluator(c)(xs)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(job, range(16)))
        base = job(0)
        for r in results:
            assert np.array_equal(r, base)


class TestEigenvalues:
    def test_hyperbolic_diagonal(self):
        assert abs(eigenvalue(HYP, 0.5, 0.5, Coupling(1.0)) - math.pi) < 1e-13

    def test_gamma_diagonal(self):
        assert eigenvalue(GAM, 0.4, 0.4, Coupling(1.0)) == pytest.approx(1.0)

    def test_relativistic_symmetry(self):
        c = Coupling(1.1, P12)
        a = eigenvalue(REL, 0.3, -0.4, c)
        b = eigenvalue(REL, -0.4, 0.3, c)
        assert abs(a - b) < 1e-12 * abs(a)
