import cmath
import math
import warnings

import numpy as np
import pytest

from hypq.errors import ContinuationError, DomainError, GammaOverflowError, KernelPoleError
from hypq.kernels import Coupling, KernelFamily
from hypq.operators import pair_transform
from hypq.quad import QuadSpec
from hypq.special import Periods
from hypq.wavefn import (
    PositionPoint,
    SpectralPoint,
    dual_difference_residual,
    momentum_residual,
    psi_asymptotic,
    psi_factored,
    psi_hr,
    psi_mb,
    schrodinger_residual,
)

from _frozen import PSI_HR_G1_SAMPLE
from oracles import trapezoid_oracle

HYP, GAM, REL = KernelFamily.HYPERBOLIC, KernelFamily.GAMMA, KernelFamily.RELATIVISTIC
Q = QuadSpec()
P12 = Periods(1.0, math.sqrt(2.0))
SP = SpectralPoint(0.4, -0.3)
PP = PositionPoint(0.2, -0.6)
C1 = Coupling(1.0)


class TestRepresentations:
    def test_position_side_frozen_value(self):
        got = psi_hr(SP, PP, C1, HYP, Q)
        assert abs(got - PSI_HR_G1_SAMPLE) < 1e-9

    def test_position_side_vs_fresh_oracle(self):
        l1, l2, x1, x2 = 0.4, -0.3, 0.2, -0.6
        f = lambda t: (
            np.exp(1j * l2 * (x1 + x2 - t))
            / np.cosh(x1 - t)
            / np.cosh(x2 - t)
            * np.exp(1j * l1 * t)
        )
        assert abs(psi_hr(SP, PP, C1, HYP, Q) - trapezoid_oracle(f, 40.0, 16001)) < 1e-9

    def test_equivalence_g1(self):
        a = psi_hr(SP, PP, C1, HYP, Q)
        b = psi_mb(SP, PP, C1, GAM, Q)
        assert abs(a - b) <= 1e-7 * max(1.0, abs(a))

    def test_elementary_point(self):
        v = psi_hr(SpectralPoint(0, 0), PositionPoint(0, 0), C1, HYP, Q)
        assert abs(v - 2.0) < 1e-12

    def test_double_symmetry(self):
        c = Coupling(0.7)
        sp, pp = SpectralPoint(0.5, -0.2), PositionPoint(0.3, -0.8)
        base = psi_hr(sp, pp, c, HYP, Q)
        xswap = psi_hr(sp, PositionPoint(-0.8, 0.3), c, HYP, Q)
        lswap = psi_hr(SpectralPoint(-0.2, 0.5), pp, c, HYP, Q)
        assert abs(base - xswap) <= 1e-9 * abs(base)
        assert abs(base - lswap) <= 1e-9 * abs(base)

    def test_relativistic_equivalence(self):
        c = Coupling(0.9, P12)
        sp, pp = SpectralPoint(0.3, -0.2), PositionPoint(0.25, -0.35)
        a = psi_hr(sp, pp, c, REL, Q)
        b = psi_mb(sp, pp, c, REL, Q)
        assert abs(a - b) <= 1e-5 * max(1.0, abs(a))
        oracle_lhs = trapezoid_oracle(
            _relativistic_position_integrand(sp, pp, c), 14.0, 8001
        )
        assert abs(a - oracle_lhs) < 1e-6

    def test_mb_matches_explicit_gamma_normalization(self):
        # the spectral-side integral written with explicit gamma factors and
        # the 2^(2g-3)/(pi Gamma^2(g)) constant
        from hypq.quad import DecayProfile, integrate_line
        from hypq.special import _ln_gamma_vec, complex_gamma

        g = 1.0
        l1, l2, x1, x2 = 0.4, -0.3, 0.2, -0.6
        pref = 2.0 ** (2 * g - 3) / (math.pi * complex_gamma(g) ** 2)

        def integrand(gam):
            return (
                pref
                * np.exp(_ln_gamma_vec(0.5 * (1j * l1 - 1j * gam + g)))
                * np.exp(_ln_gamma_vec(0.5 * (1j * gam - 1j * l1 + g)))
                * np.exp(_ln_gamma_vec(0.5 * (1j * l2 - 1j * gam + g)))
                * np.exp(_ln_gamma_vec(0.5 * (1j * gam - 1j * l2 + g)))
                * np.exp(1j * (l1 + l2 - gam) * x2)
                * np.exp(1j * gam * x1)
            )

        explicit = integrate_line(
            integrand, DecayProfile(math.pi, math.pi), Q, freq_hint=abs(x1 - x2)
        )
        assert abs(explicit - psi_mb(SP, PP, C1, GAM, Q)) < 1e-10

    def test_mb_orientation_symmetry(self):
        # the spectral integral with the position labels attached in either
        # orientation gives the same value (reflection of the integration
        # variable about the spectral midpoint)
        from hypq.kernels import _hatK_real_vec
        from hypq.quad import DecayProfile, integrate_line

        g = 0.8
        l1, l2, x1, x2 = 0.5, -0.1, 0.3, -0.7

        def orient(a, b):
            def f(gam):
                return (
                    _hatK_real_vec(l1 - gam, g)
                    * _hatK_real_vec(l2 - gam, g)
                    * np.exp(1j * (a * (l1 + l2 - gam) + b * gam))
                    / (2 * math.pi)
                )

            return integrate_line(
                f, DecayProfile(math.pi, math.pi), Q, freq_hint=abs(x1 - x2)
            )

        assert abs(orient(x1, x2) - orient(x2, x1)) < 1e-11

    def test_mb_symmetry_in_spectra(self):
        a = psi_mb(SP, PP, C1, GAM, Q)
        b = psi_mb(SpectralPoint(-0.3, 0.4), PP, C1, GAM, Q)
        assert abs(a - b) <= 1e-9 * abs(a)


def _relativistic_position_integrand(sp, pp, c):
    from hypq.kernels import kg_real_evaluator

    kap = 2 * math.pi / c.periods.product
    ev = kg_real_evaluator(c)

    def f(t):
        return (
            np.exp(1j * kap * (sp.lambda2.real * (pp.xsum - t) + sp.lambda1.real * t))
            * ev(pp.x1 - t)
            * ev(pp.x2 - t)
        )

    return f


class TestComplexContinuation:
    """At complex spectral values the position side takes the pair profile at
    a complex delta, the spectral side its direct one-fold integral; the
    dual pair must still agree."""

    @pytest.mark.parametrize(
        "sp",
        [
            SpectralPoint(0.4 + 0.3j, -0.3 - 0.2j),
            SpectralPoint(0.7 - 0.4j, 0.2 + 0.3j),
            SpectralPoint(0.4 + 0.1j, -0.3),
            # near the strip edge |Im(l1 - l2)| -> 2g the plane factor grows
            # almost as fast as the kernels decay, over a long tail
            SpectralPoint(0.4 + 0.95j, -0.3 - 0.95j),
            SpectralPoint(0.4 - 0.95j, -0.3 + 0.95j),
        ],
    )
    @pytest.mark.parametrize("pp", [PositionPoint(0.2, -0.6), PositionPoint(1.1, 0.3)])
    def test_dual_representations_agree_g1(self, sp, pp):
        a = psi_hr(sp, pp, C1, HYP, Q)
        b = psi_mb(sp, pp, C1, GAM, Q)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_dual_representations_agree_g16(self):
        sp, c = SpectralPoint(0.4 + 0.5j, -0.3 - 0.6j), Coupling(1.6)
        a = psi_hr(sp, PP, c, HYP, Q)
        b = psi_mb(sp, PP, c, GAM, Q)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    @pytest.mark.parametrize("d_im", [2.0, -2.0, 2.5])
    def test_position_side_outside_strip(self, d_im):
        sp = SpectralPoint(0.4 + 0.5j * d_im, -0.3 - 0.5j * d_im)
        with pytest.raises(DomainError):
            psi_hr(sp, PP, C1, HYP, Q)


    def test_growing_plane_factor_without_warning(self):
        # at a complex spectral point the plane factor e^(i kappa l+ (x1+x2))
        # grows with x1 + x2.  Where it alone is past the double range but the
        # product with the decaying profile is not, the product is formed
        # under the log; where the product is past it too, GammaOverflowError
        sp = SpectralPoint(0.4 - 0.3j, -0.3 - 0.2j)
        ln_half = 0.5j * sp.plus * 3000.0  # kappa = 1 at g = 1; Re = 375
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = psi_hr(sp, PositionPoint(1700.0, 1300.0), C1, HYP, Q)
            prof = pair_transform(HYP, C1, sp.delta, 400.0, Q)  # |prof| = 4.3e-165
            halves = cmath.exp(ln_half) * (cmath.exp(ln_half) * prof)
            for x in (1e5, 1e300):
                with pytest.raises(GammaOverflowError):
                    psi_hr(sp, PositionPoint(x, x - 0.5), C1, HYP, Q)
        assert abs(got - halves) <= 1e-12 * abs(got)


class TestFactoredForm:
    def test_factorization_at_random_points(self):
        rng = np.random.RandomState(21)
        for _ in range(5):
            l1, l2 = rng.uniform(-1, 1, 2)
            x1, x2 = rng.uniform(-1.2, 1.2, 2)
            sp, pp = SpectralPoint(l1, l2), PositionPoint(x1, x2)
            full = psi_hr(sp, pp, C1, HYP, Q)
            fac = np.exp(1j * (l1 + l2) * (x1 + x2) / 2) * psi_factored(
                (l1 - l2) / 2.0, x1 - x2, C1, Q
            )
            assert abs(full - fac) <= 1e-8 * max(1.0, abs(full))

    def test_evenness(self):
        assert psi_factored(0.3, 0.9, C1, Q) == psi_factored(0.3, -0.9, C1, Q)

    def test_elementary_value(self):
        assert abs(psi_factored(0.0, 0.0, C1, Q) - 2.0) < 1e-12

    def test_sutherland_variant_real(self):
        # l1 + l2 = 0 and x1 + x2 = 0 remove the plane-wave phase: the wave
        # function is the real separation profile
        v = psi_hr(SpectralPoint(0.35, -0.35), PositionPoint(0.55, -0.55), C1, HYP, Q)
        assert abs(v.imag) < 1e-12
        assert abs(v - psi_factored(0.35, 1.1, C1, Q)) < 1e-12


class TestAsymptotics:
    def test_threshold_and_trend(self):
        sp = SpectralPoint(0.5, -0.5)
        devs = []
        for dx in (6.0, 8.0, 10.0):
            pp = PositionPoint(-dx / 2, dx / 2)
            exact = psi_hr(sp, pp, C1, HYP, Q)
            asym = psi_asymptotic(sp, pp, C1)
            devs.append(abs(exact - asym) / abs(asym))
        assert devs[1] < 1e-2
        assert devs[2] < devs[1] < devs[0]

    def test_swap_invariance(self):
        pp = PositionPoint(-3.0, 3.0)
        a = psi_asymptotic(SpectralPoint(0.5, -0.5), pp, C1)
        b = psi_asymptotic(SpectralPoint(-0.5, 0.5), pp, C1)
        assert abs(a - b) < 1e-13 * abs(a)

    def test_coincident_rejected(self):
        with pytest.raises(KernelPoleError):
            psi_asymptotic(SpectralPoint(0.5, 0.5), PositionPoint(-3, 3), C1)

    def test_overflow_names_the_separation(self):
        # e^(-g (x2 - x1)) leaves the double range past x1 - x2 ~ 709/g
        with pytest.raises(GammaOverflowError, match="x2 - x1 = -800"):
            psi_asymptotic(SpectralPoint(0.5, -0.5), PositionPoint(400, -400), C1)


class TestEquationResiduals:
    def test_schrodinger(self):
        r = schrodinger_residual(SP, PositionPoint(0.5, -0.5), C1, 1e-2, Q)
        assert r < 1e-4

    def test_momentum(self):
        r = momentum_residual(SP, PositionPoint(0.5, -0.5), C1, 1e-2, Q)
        assert r < 1e-6

    def test_fd_order_scaling(self):
        r1 = schrodinger_residual(SP, PositionPoint(0.5, -0.5), C1, 1e-2, Q)
        r2 = schrodinger_residual(SP, PositionPoint(0.5, -0.5), C1, 2e-2, Q)
        assert 10.0 < r2 / r1 < 22.0  # ~h^4

    def test_coincident_coordinates_rejected(self):
        with pytest.raises(DomainError):
            schrodinger_residual(SP, PositionPoint(0.3, 0.3), C1, 1e-2, Q)

    def test_dual_difference(self):
        c = Coupling(2.5)
        res = dual_difference_residual(SP, PositionPoint(0.2, -0.1), c, Q)
        assert res.momentum < 1e-6
        assert res.hamiltonian < 1e-5

    def test_dual_difference_pole_clearance(self):
        with pytest.raises(ContinuationError):
            dual_difference_residual(SP, PositionPoint(0.2, -0.1), Coupling(1.5), Q)

    def test_dual_coefficients_exchange(self):
        # the two rational coefficients swap under exchanging the spectra
        g = 2.5
        l1, l2 = 0.4, -0.3
        c1 = (l1 - l2 + 2j * (g - 1)) / (l2 - l1)
        c2 = (l2 - l1 + 2j * (g - 1)) / (l1 - l2)
        c1s = (l2 - l1 + 2j * (g - 1)) / (l1 - l2)
        assert c1s == c2 and c1 != c2


class TestNonFinitePositions:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: psi_hr(SP, PositionPoint(math.nan, 0.2), C1, HYP, Q),
            lambda: psi_factored(0.35, math.nan, C1, Q),
            lambda: psi_mb(SP, PositionPoint(0.1, math.nan), C1, GAM, Q),
            lambda: psi_hr(SpectralPoint(0.4 + 0.1j, -0.3), PositionPoint(math.nan, 0.2), C1, HYP, Q),
        ],
        ids=["psi_hr", "psi_factored", "psi_mb", "psi_hr-complex"],
    )
    def test_nan_position_is_domain_error(self, call):
        with pytest.raises(DomainError):
            call()
