import cmath
import math
import warnings

import numpy as np
import pytest

import hypq.special as S
from hypq.errors import (
    DomainError,
    GammaOverflowError,
    GammaPoleError,
    HypqError,
    LatticePoleError,
    StripError,
)
from hypq.kernels import Coupling, kernel_hatK
from hypq.special import (
    Periods,
    _ln_gamma_vec,
    b22,
    complex_gamma,
    double_sine,
    double_sine_asymptotic,
    log_complex_gamma,
    log_double_sine,
)

from _frozen import GAMMA_0P3_0P7I, LOG_S2_0P7_W11
from oracles import gamma_oracle, log_double_sine_oracle

PERIOD_PAIRS = [Periods(1.0, 1.0), Periods(1.0, math.sqrt(2.0)), Periods(0.7, 1.9)]
OMIN_ONE_PAIRS = [Periods(1.0, 1.0), Periods(1.0, math.sqrt(2.0)), Periods(1.6, 1.0)]


class TestComplexGamma:
    def test_identity_cases(self):
        assert complex_gamma(1.0) == pytest.approx(1.0, abs=1e-13)
        assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_frozen_complex_value(self):
        got = complex_gamma(0.3 + 0.7j)
        assert abs(got - GAMMA_0P3_0P7I) < 5e-13
        assert abs(got - gamma_oracle(0.3 + 0.7j)) < 5e-13

    def test_against_oracle_on_samples(self):
        rng = np.random.RandomState(7)
        for _ in range(30):
            z = complex(rng.uniform(-8, 8), rng.uniform(0.2, 8))
            got = complex_gamma(z)
            ref = gamma_oracle(z)
            assert abs(got - ref) <= 5e-12 * abs(ref)

    def test_reflection_identity(self):
        rng = np.random.RandomState(11)
        for _ in range(100):
            z = complex(rng.uniform(-9, 9), rng.uniform(0.05, 9) * rng.choice([-1, 1]))
            if abs(z) >= 10:
                continue
            val = complex_gamma(z) * complex_gamma(1 - z) * np.sin(np.pi * z) / np.pi
            assert abs(val - 1.0) < 1e-11

    def test_pole_errors(self):
        for z in (0.0, -1.0, -5.0, -3 + 1e-14j):
            with pytest.raises(GammaPoleError):
                complex_gamma(z)

    def test_overflow_reports_log_alternative(self):
        with pytest.raises(GammaOverflowError, match="log_complex_gamma"):
            complex_gamma(400.0)
        lg = log_complex_gamma(400.0)
        assert lg.real == pytest.approx(math.lgamma(400.0), rel=1e-13)

    def test_log_form_off_the_real_axis(self):
        # both signs of Im z, and Re z < 0.5 through the reflection, also
        # beyond |Im z| ~ 226, where sin(pi z) overflows
        rng = np.random.RandomState(13)
        zs = [complex(rng.uniform(-8, 8), rng.uniform(0.2, 8) * s) for s in (1, -1) * 20]
        for z in zs + [-3.7 + 0.5j, 0.2 - 6j, 0.49 + 0.01j, 0.3 + 300j, -2.5 - 250j]:
            ref = gamma_oracle(z)
            assert abs(cmath.exp(log_complex_gamma(z)) - ref) <= 5e-12 * abs(ref)
        for x in (0.3, 1.0, 2.5, 17.25, 140.0, -0.5, -2.3, -7.9):
            assert log_complex_gamma(x).real == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize(
        "z,ref",
        [
            (
                0.3 + 300j,
                -1.713900637626996240259166e-205 - 4.295228130257249866233341e-206j,
            ),
            (
                0.5 + 100j,
                -1.091785689781882948055395e-68 + 1.049640686487808307035985e-68j,
            ),
            (
                -2.7 + 40j,
                -2.845578357647613370085537e-33 + 9.197679994157274886598763e-33j,
            ),
        ],
    )
    def test_large_imaginary_part_pinned(self, z, ref):
        # 25-digit reference values; the Lanczos set's own error reaches
        # ~2e-13 at large |Im z|
        assert abs(complex_gamma(z) - ref) <= 5e-13 * abs(ref)

    def test_accuracy_radius_50(self):
        for z in (49.5, 30 + 39j, -20 + 40j, 0.5 - 49j):
            ref = gamma_oracle(complex(z))
            assert abs(complex_gamma(z) - ref) <= 1e-12 * abs(ref)


def _one_point_grid():
    """Re z in [-20, 20] with |Im z| up to 300, points within 1e-9 of the
    poles and both sides of the reflection's switch at Re z = 0.5."""
    im = [0.0, 1e-6, 0.3, 2.0, 17.0, 90.0, 226.0, 300.0]
    zs = [complex(r, s * y) for r in np.linspace(-20, 20, 97) for y in im for s in (1, -1)]
    near = (1e-9, -1e-9, 1e-9j, -1e-9j, 7e-10 * (1 + 1j), 7e-10 * (1 - 1j))
    zs += [n + d for n in range(-20, 1) for d in near]
    zs += [complex(0.5 + d, y) for d in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3) for y in (0, 1, -1, 300, -300)]
    return zs


def _array_path(z):
    with np.errstate(all="ignore"):
        return complex(_ln_gamma_vec(np.array([z]))[0])


class TestOnePointGamma:
    # exp turns an ulp of ln Gamma into a relative error of that size, and
    # |ln Gamma| reaches ~1700 at |Im z| = 300, where one ulp is 2.3e-13; so
    # each bound below adds a few ulps of the log to its relative floor

    def test_real_argument_is_real(self):
        assert complex_gamma(-2.5).imag == 0.0 and complex_gamma(-10.3).imag == 0.0
        for x in np.arange(-2000, 2000) / 100.0 + 0.005:  # 0.005 or more from the poles
            got = complex_gamma(x)
            assert got.imag == 0.0
            tol = 1e-14 + 4.0 * np.spacing(abs(math.lgamma(x)))
            assert abs(got.real / math.gamma(x) - 1.0) <= tol, x

    def test_one_point_matches_array_path(self):
        checked = 0
        for z in _one_point_grid():
            a, b = _ln_gamma_vec(z), _array_path(z)
            assert isinstance(a, complex)
            if cmath.isfinite(a) and cmath.isfinite(b):
                assert abs(cmath.exp(a - b) - 1.0) <= 1e-13 + 2.0 * np.spacing(abs(b)), z
                checked += 1
        assert checked > 1600

    @pytest.mark.parametrize(
        "fn",
        [complex_gamma, log_complex_gamma, lambda lam: kernel_hatK(lam, Coupling(0.8))],
        ids=["complex_gamma", "log_complex_gamma", "kernel_hatK"],
    )
    def test_public_calls_agree_on_both_paths(self, monkeypatch, fn):
        # the same value, or the same HypqError class, with the one-point
        # core swapped for the array path
        zs = _one_point_grid() + [200.0, 1e300, 1.7e308, -1e308 + 1j, 0.4 + 8.5e307j, 2.8e307j]

        def outcomes():
            out = []
            for z in zs:
                try:
                    out.append(fn(z))
                except HypqError as exc:
                    out.append(type(exc))
            return out

        one = outcomes()
        monkeypatch.setattr(S, "_ln_gamma_one", _array_path)
        for z, a, b in zip(zs, one, outcomes()):
            if isinstance(a, type) or isinstance(b, type):
                assert a is b, z
            elif fn is log_complex_gamma:
                assert abs(cmath.exp(a - b) - 1.0) <= 1e-13 + 2.0 * np.spacing(abs(b)), z
            else:
                assert abs(a - b) <= 1e-12 * abs(b), z


class TestLogDoubleSine:
    def test_midpoint_is_zero(self):
        for p in PERIOD_PAIRS:
            assert abs(log_double_sine(p.total / 2.0, p)) < 1e-12

    def test_frozen_value(self):
        assert abs(log_double_sine(0.7, Periods(1, 1)) - LOG_S2_0P7_W11) < 1e-10

    def test_against_trapezoid_oracle(self):
        z = 0.55 + 0.3j
        ref = log_double_sine_oracle(z, 1.0, math.sqrt(2.0))
        got = log_double_sine(z, Periods(1.0, math.sqrt(2.0)))
        assert abs(got - ref) < 1e-9

    def test_inversion_sum(self):
        p = Periods(1.0, math.sqrt(2.0))
        z = 0.3 + 0.2j
        assert abs(log_double_sine(z, p) + log_double_sine(p.total - z, p)) < 1e-12

    def test_strip_violation(self):
        p = Periods(1.0, 1.0)
        for z in (-0.1, 0.0, 2.0, 2.5):
            with pytest.raises(StripError):
                log_double_sine(z, p)

    @pytest.mark.parametrize("p", [Periods(1.0, 1.7), Periods(1.0, 2.6), Periods(1.0, math.sqrt(2.0))])
    def test_against_b22_line(self, p):
        # an independent route just below the asymptotic switch, where
        # S2 = exp(sign(d) i pi B22 / 2) up to O(e^(-2 pi |d| / omega_max))
        for f in (5.0, 0.99 * 5.5):
            for sign in (1.0, -1.0):
                for u in (0.15, 0.7, 1.3, p.total - 0.2):
                    z = complex(u, sign * f * p.omax)
                    ref = sign * 0.5j * math.pi * b22(z, p)
                    assert abs(cmath.exp(log_double_sine(z, p) - ref) - 1.0) <= 3e-11

    def test_work_at_strip_edge(self, s2_t_nodes):
        # S2's zero and pole are taken out in closed form, so the t range
        # does not grow like 1 / distance to the strip edge
        p = Periods(1.0, 1.7)
        a = log_double_sine(1e-3 + 0.5j, p)
        b = log_double_sine(p.total - 1e-3 - 0.5j, p)
        assert sum(s2_t_nodes) <= 300
        assert abs(a + b) < 1e-12


class TestDoubleSine:
    def test_midpoint_unity(self):
        for p in PERIOD_PAIRS:
            assert abs(double_sine(p.total / 2.0, p) - 1.0) < 1e-12

    def test_functional_equations_sampled(self):
        rng = np.random.RandomState(5)
        for p in PERIOD_PAIRS:
            for _ in range(25):
                z = complex(rng.uniform(0.1, p.total - 0.1), rng.uniform(-1.5, 1.5))
                lhs1 = double_sine(z, p) / double_sine(z + p.omega1, p)
                assert abs(lhs1 - 2 * np.sin(np.pi * z / p.omega2)) <= 1e-9 * max(
                    1.0, abs(lhs1)
                )
                lhs2 = double_sine(z, p) / double_sine(z + p.omega2, p)
                assert abs(lhs2 - 2 * np.sin(np.pi * z / p.omega1)) <= 1e-9 * max(
                    1.0, abs(lhs2)
                )

    def test_functional_equation_example(self):
        p = Periods(1.0, 1.3)
        z = 0.4
        got = double_sine(z, p) / double_sine(z + 1.0, p)
        assert abs(got - 2 * math.sin(math.pi * z / 1.3)) < 1e-10

    def test_inversion_random_points(self):
        rng = np.random.RandomState(3)
        for p in PERIOD_PAIRS:
            for _ in range(100):
                z = complex(rng.uniform(0.05, p.total - 0.05), rng.uniform(-2, 2))
                assert abs(double_sine(z, p) * double_sine(p.total - z, p) - 1.0) <= 1e-10

    def test_period_permutation(self):
        rng = np.random.RandomState(9)
        for _ in range(20):
            z = complex(rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
            a = double_sine(z, Periods(1.0, math.sqrt(2.0)))
            b = double_sine(z, Periods(math.sqrt(2.0), 1.0))
            assert abs(a - b) <= 1e-10 * abs(a)

    def test_homogeneity(self):
        z = 0.6 + 0.1j
        p = Periods(1.0, math.sqrt(2.0))
        ref = double_sine(z, p)
        for gam in (0.5, 2.0, math.pi):
            scaled = double_sine(gam * z, Periods(gam, gam * math.sqrt(2.0)))
            assert abs(scaled - ref) <= 1e-9 * abs(ref)

    def test_zeros_exact(self):
        p = Periods(1.0, 1.3)
        assert double_sine(0.0, p) == 0.0
        assert double_sine(-2 * 1.0 - 1 * 1.3, p) == 0.0

    def test_pole_indices(self):
        p = Periods(1.0, 1.3)
        with pytest.raises(LatticePoleError) as exc:
            double_sine(1.0 + 1.3, p)
        assert (exc.value.m, exc.value.k) == (1, 1)

    def test_extension_outside_strip(self):
        p = Periods(1.0, math.sqrt(2.0))
        z = 3.7 + 0.4j  # beyond the strip, reachable by downward shifts
        val = double_sine(z, p)
        # validate via the inversion relation, whose partner lies in the strip
        assert abs(val * double_sine(p.total - z, p) - 1.0) < 1e-9

    def test_inversion_product_form(self):
        # S2(z) S2(-z) = -4 sin(pi z/omega1) sin(pi z/omega2)
        p = Periods(1.0, 1.3)
        for z in (0.37 + 0.21j, 1.4 - 0.6j):
            lhs = double_sine(z, p) * double_sine(-z, p)
            rhs = -4 * np.sin(np.pi * z / p.omega1) * np.sin(np.pi * z / p.omega2)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_omega1_value(self):
        # S2(omega1) = sqrt(omega2/omega1)
        assert double_sine(1.0, Periods(1.0, 2.0)) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )


class TestStripExtension:
    def test_many_steps_warn(self):
        p = Periods(1.0, 1.0)
        with pytest.warns(RuntimeWarning, match="functional-equation steps"):
            double_sine(-70.3 + 0.4j, p)

    def test_overflow_far_left_is_structured(self):
        # the shift loop's log factor overflows cmath.exp itself
        with pytest.raises(GammaOverflowError, match="double_sine overflowed"):
            double_sine(-1e4 + 0.3j, Periods(1.0, math.sqrt(2.0)))

    def test_overflow_raises_without_warning(self):
        # the ill-conditioning warning belongs to a returned value only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GammaOverflowError):
                double_sine(-1e4 + 0.3j, Periods(1.0, math.sqrt(2.0)))

    @staticmethod
    def _loop(z, p):
        # the functional-equation reduction one step at a time; omega_min = 1
        # keeps the normalized and unnormalized arguments identical
        log_factor = 0.0
        while z.real < 0.45:
            log_factor += cmath.log(2.0 * cmath.sin(math.pi * z))
            z += p.omax
        while z.real > p.total - 0.45:
            z -= p.omax
            log_factor -= cmath.log(2.0 * cmath.sin(math.pi * z))
        return cmath.exp(log_factor + log_double_sine(z, p))

    @pytest.mark.parametrize("p", OMIN_ONE_PAIRS)
    def test_shift_matches_step_by_step_loop(self, p):
        rng = np.random.RandomState(9)
        reach = 5.0 * p.omax  # at most five steps either way
        re = rng.uniform(0.45 - reach, p.total - 0.45 + reach, 60)
        im = rng.uniform(0.05, 2.0, 60) * rng.choice([-1.0, 1.0], 60)
        for z in re + 1j * im:
            want = self._loop(complex(z), p)
            assert abs(double_sine(z, p) - want) <= 1e-13 * abs(want)

    @pytest.mark.filterwarnings("ignore:double_sine used")
    @pytest.mark.parametrize("p", OMIN_ONE_PAIRS)
    def test_many_shift_factors_match_loop(self, p):
        # beyond 64 steps, where the warning fires; the sum of ~100
        # logarithms carries ~100 roundings
        for z in (-70.3 + 0.4j, -95.1 - 0.2j, 120.7 + 0.3j, 101.2 - 0.6j):
            want = self._loop(z, p)
            assert abs(double_sine(z, p) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("z", [-1e7 + 0.3j, 1e7 - 0.3j, -1e12 + 0.3j, -1e12 + 0j])
    def test_refuses_beyond_step_cap(self, z):
        # -1e12 + 0.3j lies within the lattice test's tolerance of the real
        # axis, so the cap must come before the lattice search
        with pytest.raises(DomainError, match="too many shift steps"):
            double_sine(z, Periods(1.0, 1.0))

    @pytest.mark.parametrize("z", [complex("nan"), complex(1, math.nan), complex(math.inf, 0)])
    def test_refuses_non_finite(self, z):
        with pytest.raises(DomainError, match="finite argument"):
            double_sine(z, Periods(1.0, math.sqrt(2.0)))


class TestB22AndAsymptotics:
    def test_polynomial_values(self):
        p = Periods(1.0, 1.0)
        assert b22(0.0, p) == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert b22(1.0, p) == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_midpoint_symmetry(self):
        p = Periods(1.0, 2.0)
        assert b22(0.3, p) == pytest.approx(b22(p.total - 0.3, p), rel=1e-14)

    def test_real_axis_rejected(self):
        with pytest.raises(DomainError):
            double_sine_asymptotic(0.5, Periods(1, 1))

    def test_conjugation(self):
        p = Periods(1.0, math.sqrt(2.0))
        z = 0.5 + 8j
        a = double_sine_asymptotic(z, p)
        b = double_sine_asymptotic(z.conjugate(), p)
        assert abs(a.conjugate() - b) < 1e-14 * abs(a)

    @pytest.mark.parametrize("z", [1000j, -1000j, 0.4 + 400j])
    def test_overflow_is_structured(self, z):
        # |S2| ~ e^(pi |Im z| |Re z - w/2| / w1 w2 + ...) leaves the double
        # range; both routes raise GammaOverflowError (was a raw OverflowError)
        p = Periods(1.0, math.sqrt(2.0))
        with pytest.raises(GammaOverflowError):
            double_sine_asymptotic(z, p)
        with pytest.raises(GammaOverflowError):
            double_sine(z, p)

    def test_error_small_and_decreasing(self):
        # sampled below the internal asymptotic switch height (where the
        # integral representation is in use); beyond it the two coincide
        p = Periods(1.0, 1.0)
        errs = []
        for h in (2.2, 3.5):
            z = 0.5 + h * 1j
            exact = double_sine(z, p)
            asym = double_sine_asymptotic(z, p)
            errs.append(abs(exact - asym) / abs(asym))
        assert errs[0] < 1e-3
        assert errs[1] < errs[0]
        big = 0.5 + 8j
        assert abs(double_sine(big, p) - double_sine_asymptotic(big, p)) <= 1e-3 * abs(
            double_sine(big, p)
        )

    def test_gamma_reduction_trend(self):
        # sqrt(2 pi) (2 pi w1/w2)^(1/2 - u/w1) / S2(u) -> Gamma(u/w1)
        u, w1 = 0.6, 1.0
        devs = []
        for w2 in (10.0, 20.0, 40.0):
            est = (
                math.sqrt(2 * math.pi)
                * (2 * math.pi * w1 / w2) ** (0.5 - u / w1)
                / double_sine(u, Periods(w1, w2))
            )
            devs.append(abs(est / complex_gamma(u / w1) - 1.0))
        assert devs[2] < devs[1] < devs[0]
        assert devs[2] < 5e-2


class TestPeriods:
    def test_validation(self):
        with pytest.raises(DomainError):
            Periods(-1.0, 1.0)
        with pytest.raises(DomainError):
            Periods(1.0, 0.0)
        with pytest.raises(DomainError):
            Periods(complex(1, 1), 1.0)

    def test_derived_quantities(self):
        p = Periods(0.7, 1.9)
        assert p.total == pytest.approx(2.6)
        assert p.omin == 0.7 and p.omax == 1.9
