import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypq.errors import DomainError, GammaOverflowError, KernelPoleError
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
from hypq.special import Periods, _ln_gamma_vec, complex_gamma, double_sine, log_complex_gamma


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

    def test_complex_past_cosh_overflow_continues(self):
        # past |Re z| = 710 cosh z is e^(+-z)/2, so two steps of 1 across the
        # switch scale the kernel by e^(-2g) with the same phase
        c = Coupling(0.8)
        for x in (709.0, -709.0):
            for y in (1.0, -3.0, 7.0, -7.0):
                near = kernel_K_complex(complex(x, y), c)
                far = kernel_K_complex(complex(x + math.copysign(2.0, x), y), c)
                assert abs(far / near - math.exp(-2.0 * c.g)) < 1e-12, (x, y)


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

    def test_asymptotic_overflow_is_structured(self):
        # e^(pi (gamma - mu)/2) beyond the double range (was a raw OverflowError)
        with pytest.raises(GammaOverflowError):
            hatK_asymptotic(1e20, 5.0, Coupling(1.0))

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

    @pytest.mark.parametrize("lam", [300.0, -300.0, 1e3, 1e20, 1e3 + 5j])
    def test_underflow_far_out_is_zero(self, lam):
        # each double sine factor (or their product) leaves the double range
        # from |lam| ~ 250; Kg itself is about e^(-pi |lam| (w - g) / w1 w2)
        # there, below the smallest double, so it is 0 (was nan, or a raw
        # OverflowError from the asymptotic exp)
        c = Coupling(0.9, P12)
        assert kernel_Kg(lam, c) == 0
        assert eigenvalue(REL, lam, 0.1, c) == 0

    def test_log_route_matches_product_where_both_are_finite(self):
        # the summed-log form the far region takes agrees with 1/(S2 S2) at
        # heights where the product is still a double
        from hypq.special import _ln_s2_asymptotic

        c = Coupling(0.9, P12)
        for lam in (100.0, -150.0, 200.0):
            zs = (0.45 + 1j * lam, 0.45 - 1j * lam)
            logs = _ln_s2_asymptotic(zs[0], P12) + _ln_s2_asymptotic(zs[1], P12)
            assert abs(np.exp(-logs) - kernel_Kg(lam, c)) <= 1e-12 * abs(kernel_Kg(lam, c))

    def test_fast_evaluator_matches_direct(self):
        # validates the piecewise-Chebyshev accelerator and its asymptotic
        # switch against the double-sine route; small g puts S2's zero at 0
        # next to the real axis, g near omega1 + omega2 does the same for its
        # pole (the proxy fits only the smooth part and the evaluator adds
        # their log back)
        for g, p in (
            (0.8, P12),
            (1.3, Periods(0.7, 1.9)),
            (0.45, Periods(1.0, 1.0)),
            (0.3, Periods(1.0, 1.7)),
            (2.5, Periods(1.0, 1.7)),
            (0.2, Periods(2.0, 0.9)),
        ):
            c = Coupling(g, p)
            ev = kg_real_evaluator(c)
            rng = np.random.RandomState(123)
            xs = np.concatenate([rng.uniform(0, 12, 40), [0.0, 1e-3, 0.05, 25.0]])
            direct = np.array([kernel_Kg(float(x), c).real for x in xs])
            assert np.max(np.abs(ev(xs) / direct - 1.0)) < 1e-9

    @pytest.mark.parametrize("p", [Periods(1.0, 1.7), Periods(1.0, 2.6)])
    def test_ln_s2_pair_against_log_double_sine(self, p):
        # the real pair's cosine form against the complex strip integral on
        # the same t rule, and against the B22 line at the asymptotic switch
        from hypq.special import _ASYM_FACTOR, _re_ln_s2_pair, log_double_sine

        w1, w2 = p.omega1, p.omega2
        x_asym = _ASYM_FACTOR * p.omax
        d = np.linspace(0.0, 0.999 * x_asym, 37)
        for u in (0.15, 0.29, 0.7, 1.1, 2.0, 2.5):
            got = _re_ln_s2_pair(u, d, w1, w2)
            ref = np.array([2.0 * log_double_sine(u + 1j * x, p).real for x in d])
            assert np.max(np.abs(got - ref)) < 2e-10
            b22_line = -math.pi * d[-1] * (2.0 * u - p.total) / p.product
            assert abs(got[-1] - b22_line) < 2e-10

    def test_kg_build_work_ceiling(self, monkeypatch, s2_t_nodes):
        # (d, t) pairs of one proxy build at small g: the t range no longer
        # grows like 1/g once S2's zero and pole are integrated in closed form
        import hypq.kernels as K

        monkeypatch.setattr(K, "_kg_cache", {})
        proxy = K._kg_real_tables(Coupling(0.3, Periods(1.0, 1.7)))[0]
        assert len(s2_t_nodes) == 1
        assert 0 < s2_t_nodes[0] * proxy.coef.size <= 250_000

    def test_kg_build_trig_work(self, monkeypatch, s2_t_nodes):
        # the t-integral of one build takes two sines or cosines per
        # (piece, t) and per (offset, t) pair, not one per (d, t) pair
        import hypq.kernels as K
        import hypq.special as S

        trig_args = []

        class CountingNumpy:
            def __getattr__(self, name):
                fn = getattr(np, name)
                if name not in ("sin", "cos"):
                    return fn

                def counted(x, *args, **kwargs):
                    trig_args.append(np.size(x))
                    return fn(x, *args, **kwargs)

                return counted

        monkeypatch.setattr(S, "np", CountingNumpy())
        monkeypatch.setattr(K, "_kg_cache", {})
        proxy = K._kg_real_tables(Coupling(0.3, Periods(1.0, 1.7)))[0]
        assert len(s2_t_nodes) == 1
        separable = 2 * (proxy.mid.size + proxy.coef.shape[0]) * s2_t_nodes[0]  # offsets: degree + 1
        assert separable <= sum(trig_args) <= 1.2 * separable

    @pytest.mark.parametrize(
        "g, w1, w2",
        [(0.3, 1.0, 1.7)]
        + [(f * (a + b), a, b) for a in (0.8, 1.25) for b in (1.25, 2.0) for f in (0.25, 0.75)],
    )
    def test_proxy_smooth_part_against_pairwise_reference(self, g, w1, w2):
        # the proxy's own error, not that of the double-sine route: its smooth
        # part against the same t-integral formed pair by pair on a twice
        # finer t grid in extended precision, at g = 0.3 and at the corners
        # of the sweep_couplings ranges (relativistic g is 1/4 to 3/4 of
        # omega1 + omega2)
        import hypq.kernels as K
        from hypq.special import _ASYM_FACTOR
        from oracles import ln_s2_pair_smooth_oracle

        proxy, s, _, sw1, sw2 = K._kg_real_tables(Coupling(g, Periods(w1, w2)))
        x_asym = _ASYM_FACTOR * max(sw1, sw2)
        x = np.concatenate([np.random.RandomState(7).uniform(0.0, x_asym, 200), [0.0, x_asym]])
        ref = ln_s2_pair_smooth_oracle(0.5 * g * s, x, w1 * s, w2 * s)
        assert np.max(np.abs(proxy(x) - ref)) < 1e-12

    @pytest.mark.parametrize("u, w1, w2", [(0.15, 1.0, 1.7), (0.7, 1.0, 1.7), (2.5, 1.0, 2.6)])
    def test_measure_smooth_part_against_pairwise_reference(self, u, w1, w2):
        # the measure's form of the t-integral (d on one axis, the single
        # offset 0, sin^2 A alone) against the same pair-by-pair reference
        import hypq.special as S
        from oracles import ln_s2_pair_smooth_oracle

        d = np.linspace(0.0, S._ASYM_FACTOR * max(w1, w2), 41)
        got = S._ln_s2_pair_smooth(u, d, np.zeros(1), w1, w2)
        assert got.shape == (d.size, 1)
        assert np.max(np.abs(got[:, 0] - ln_s2_pair_smooth_oracle(u, d, w1, w2))) < 1e-12

    def test_proxy_clenshaw_matches_plain_recurrence(self):
        # arithmetic piece index and reused-buffer Clenshaw against searchsorted
        # and the textbook recurrence on the same coefficients, bit for bit
        import hypq.kernels as K

        proxy = K._kg_real_tables(Coupling(0.8, P12))[0]
        xmax = 2.0 * proxy.h * proxy.mid.size
        x = np.concatenate([np.random.RandomState(3).uniform(0.0, xmax, 5000), [0.0, xmax]])
        edges = np.append(proxy.mid - proxy.h, xmax)
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, proxy.mid.size - 1)
        s = (x - proxy.mid[idx]) / proxy.h
        c = proxy.coef.T[idx]
        b1 = b2 = np.zeros_like(s)
        for j in range(c.shape[1] - 1, 0, -1):
            b1, b2 = 2.0 * s * b1 - b2 + c[:, j], b1
        assert np.array_equal(proxy(x), s * b1 - b2 + c[:, 0])
        assert np.isnan(proxy(np.array([np.nan]))).all()

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

    def test_scalar_matches_array(self):
        # one point is 2 Re of the complex one-point ln Gamma, arrays take the
        # real-arithmetic blocks: the same Lanczos sum, so they agree to rounding
        from hypq.kernels import _ln_abs_gamma_sq_real

        b = np.linspace(-300.0, 300.0, 601)
        for a in (0.35, 1.0, 1.6, 3.0):
            singles = np.array([_ln_abs_gamma_sq_real(a, x) for x in b])
            got = _ln_abs_gamma_sq_real(a, b)
            assert np.all(np.abs(got - singles) <= 1e-14 * np.maximum(1.0, np.abs(singles)))
            for shape in ((1,), (1, 1)):  # a one-point array keeps its shape
                one = _ln_abs_gamma_sq_real(a, np.full(shape, b[7]))
                assert one.shape == shape and one.item() == singles[7]

    def test_peak_allocation(self):
        # a quadrature call's 8,190 points: no 8 x N block of Lanczos terms
        # is held at once, so the peak stays a few times the input's size
        import tracemalloc

        from hypq.kernels import _ln_abs_gamma_sq_real

        b = np.linspace(-40.0, 40.0, 8190)
        _ln_abs_gamma_sq_real(0.5, b)
        tracemalloc.start()
        try:
            _ln_abs_gamma_sq_real(0.5, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * b.nbytes


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

    def test_relativistic_at_large_period_ratio(self):
        # S2(omega_max +- id) and S2(g +- id) with g near omega1 + omega2 sit
        # far from the strip's middle: the t-integral must stay finite
        for g, p in ((1.0, Periods(1.0, 40.0)), (20.9, Periods(1.0, 20.0))):
            cr = Coupling(g, p)
            ds = np.array([0.05, 0.3, 1.0, 2.5, 7.0])
            got = measure_relativistic(ds, cr)
            direct = np.array(
                [
                    (
                        double_sine(1j * d, p)
                        * double_sine(-1j * d, p)
                        * double_sine(g + 1j * d, p)
                        * double_sine(g - 1j * d, p)
                    ).real
                    for d in ds
                ]
            )
            assert np.max(np.abs(got / direct - 1.0)) < 1e-10

    def test_log_forms_match(self):
        c = Coupling(0.8)
        cr = Coupling(0.9, P12)
        v = np.array([0.4, 1.1, 3.0])
        # the gamma measure against the complex Gamma route
        pref = (2 ** (1 - c.g) * math.gamma(c.g)) ** 2
        direct = (
            pref
            / np.abs(np.exp(_ln_gamma_vec(c.g + 0.5j * v)) * np.exp(_ln_gamma_vec(0.5j * v)))
            ** 2
        )
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


class TestKgCache:
    def test_bounded_and_still_hits(self, monkeypatch):
        import hypq.kernels as K

        builds = []

        class Stub:
            def __init__(self, *args, **kwargs):
                builds.append(args)

        monkeypatch.setattr(K, "_PiecewiseCheb", Stub)
        monkeypatch.setattr(K, "_kg_cache", {})
        couplings = [Coupling(0.5 + 0.01 * i, P12) for i in range(70)]
        for c in couplings:
            K._kg_real_tables(c)
        assert len(builds) == 70
        assert len(K._kg_cache) <= K._KG_CACHE_MAX
        # the oldest entry went first; a repeated recent coupling still hits
        assert K._kg_real_tables(couplings[-1]) is K._kg_real_tables(couplings[-1])
        assert len(builds) == 70
        K._kg_real_tables(couplings[0])
        assert len(builds) == 71


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: complex_gamma(math.nan),
        lambda: kernel_hatK(math.nan, Coupling(1.0)),
        lambda: log_complex_gamma(math.inf),
        lambda: measure(KernelFamily.RELATIVISTIC, math.nan, 0.0, Coupling(0.8, Periods(1.0, 1.5))),
        lambda: measure(KernelFamily.GAMMA, math.nan, 0.0, Coupling(1.0)),
        lambda: kernel_K(math.nan, Coupling(1.0)),
        lambda: eigenvalue(GAM, math.nan, 0.0, Coupling(1.0)),
        lambda: eigenvalue(GAM, 0.3, complex(0.0, math.nan), Coupling(1.0)),
        lambda: eigenvalue(GAM, math.inf, 0.0, Coupling(1.0)),
    ],
    ids=[
        "complex_gamma-nan",
        "hatK-nan",
        "log_gamma-inf",
        "measure-rel-nan",
        "measure-gamma-nan",
        "K-nan",
        "eigen-gamma-nan",
        "eigen-gamma-label-imag-nan",
        "eigen-gamma-inf",
    ],
)
def test_non_finite_argument_is_domain_error(call):
    with pytest.raises(DomainError, match="finite"):
        call()


def test_kernel_K_infinite_limit():
    # the NaN refusal leaves the limit cosh(x)^(-g) -> 0 at x = +-inf
    assert kernel_K(math.inf, Coupling(0.7)) == kernel_K(-math.inf, Coupling(0.7)) == 0.0
