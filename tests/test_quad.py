import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypq import quad
from hypq.errors import BudgetExceededError, DomainError, NonFiniteSampleError
from hypq.quad import (
    DecayProfile,
    QuadSpec,
    integrate_half_line,
    integrate_line,
    integrate_plane,
    oracle_trapezoid,
    oracle_trapezoid_2d,
)

from oracles import trapezoid_oracle

Q = QuadSpec()
SECH = DecayProfile(1.0, 1.0)


class TestIntegrateLine:
    def test_sech_integral(self):
        v = integrate_line(lambda z: 1.0 / np.cosh(z), SECH, Q)
        assert abs(v - math.pi) < 1e-12

    def test_oscillatory_sech(self):
        lam = 1.0
        v = integrate_line(
            lambda z: np.exp(1j * lam * z) / np.cosh(z), SECH, Q, freq_hint=lam
        )
        closed = math.pi / math.cosh(math.pi * lam / 2.0)
        oracle = trapezoid_oracle(lambda z: np.exp(1j * lam * z) / np.cosh(z), 40.0, 16001)
        assert abs(v - closed) < 1e-12
        assert abs(v - oracle) < 1e-11

    def test_gaussian_with_conservative_rate(self):
        v = integrate_line(lambda z: np.exp(-z * z), DecayProfile(1.0, 1.0), Q)
        assert abs(v - math.sqrt(math.pi)) < 1e-12

    def test_scalar_only_callable(self):
        v = integrate_line(lambda z: 1.0 / math.cosh(z), SECH, Q)
        assert abs(v - math.pi) < 1e-12

    def test_linearity(self):
        f = lambda z: 1.0 / np.cosh(z)
        g = lambda z: np.exp(-z * z)
        a, b = 2.5, -0.75
        lhs = integrate_line(lambda z: a * f(z) + b * g(z), SECH, Q)
        rhs = a * integrate_line(f, SECH, Q) + b * integrate_line(g, SECH, Q)
        assert abs(lhs - rhs) < 2 * (Q.abs_tol + Q.rel_tol * abs(rhs))

    def test_translation_covariance(self):
        shift = 1.7
        base = integrate_line(lambda z: 1.0 / np.cosh(z) ** 2, SECH, Q)
        moved = integrate_line(
            lambda z: 1.0 / np.cosh(z - shift) ** 2,
            DecayProfile(2.0, 2.0, center=shift),
            Q,
        )
        assert abs(base - moved) < 1e-11

    def test_determinism(self):
        f = lambda z: np.exp(2j * z) / np.cosh(z)
        a = integrate_line(f, SECH, Q, freq_hint=2.0)
        b = integrate_line(f, SECH, Q, freq_hint=2.0)
        assert a == b

    @pytest.mark.filterwarnings("ignore:overflow encountered in cosh")
    def test_budget_error_carries_estimate(self):
        # the 1e-300 abs_tol stretches the truncated interval far into the
        # tail, where cosh overflows to inf and the integrand to a clean 0
        spec = QuadSpec(rel_tol=1e-15, abs_tol=1e-300, max_nodes=64)
        with pytest.raises(BudgetExceededError) as exc:
            integrate_line(lambda z: 1.0 / np.cosh(z), SECH, spec)
        # the carried estimate is self-consistent with its error bound
        assert abs(exc.value.estimate - math.pi) <= exc.value.error_bound
        assert exc.value.error_bound > 0
        assert exc.value.nodes_used >= 64

    def test_non_finite_sample(self):
        def bad(z):
            z = np.asarray(z, dtype=float)
            return np.where(np.abs(z - 0.3) < 0.05, np.nan, 1.0) / np.cosh(z)

        with pytest.raises(NonFiniteSampleError) as exc:
            integrate_line(bad, SECH, Q)
        assert abs(exc.value.abscissa - 0.3) < 0.06

    def test_half_line(self):
        v = integrate_half_line(lambda t: np.exp(-2.0 * t), 2.0, Q)
        assert abs(v - 0.5) < 1e-12


class TestIntegratePlane:
    def test_gaussian_product(self):
        v = integrate_plane(
            lambda a, b: np.exp(-a * a - b * b), SECH, SECH, Q
        )
        assert abs(v - math.pi) < 5e-11

    def test_sech_product(self):
        v = integrate_plane(
            lambda a, b: 1.0 / (np.cosh(a) * np.cosh(b)), SECH, SECH, Q
        )
        assert abs(v - math.pi**2) < 5e-11

    def test_coupled_kernel_slice_vs_2d_oracle(self):
        # a two-variable operator-kernel slice at unit coupling
        def f(y1, y2):
            return (
                np.sinh(np.abs(y1 - y2)) ** 2
                / (np.cosh(y1) ** 2 * np.cosh(y2) ** 2)
                / np.cosh(y1 - 0.3)
                / np.cosh(y2 - 0.3)
            )

        v = integrate_plane(f, DecayProfile(1.0, 1.0), DecayProfile(1.0, 1.0), Q)
        oracle = oracle_trapezoid_2d(f, 20.0, 4001)
        # the grid oracle carries an O(h^2)-level kink error along y1 = y2
        assert abs(v - oracle) <= 2e-7

    def test_scalar_only_callable(self):
        v = integrate_plane(lambda a, b: math.exp(-a * a - b * b), SECH, SECH, Q)
        assert abs(v - math.pi) < 5e-11

    def test_integrand_error_propagates(self):
        def f(a, b):
            if np.any(np.abs(a) > 30.0):
                raise DomainError("outside the integrand's domain")
            return np.exp(-a * a - b * b)

        with pytest.raises(DomainError, match="outside"):
            integrate_plane(f, SECH, SECH, Q)

    def test_batched_inner_integrals_match_loop(self):
        def f(a, b):
            return np.exp(-a * a - 0.5 * b * b + 1j * (6.0 * a + 2.0 * a * b))

        d1, d2 = DecayProfile(1.0, 1.0), DecayProfile(0.5, 0.5)
        v = integrate_plane(f, d1, d2, Q, freq_hint1=6.0, freq_hint2=1.0)

        def outer(y2):
            # one separate inner integral per outer abscissa
            return np.array(
                [integrate_line(lambda y1: f(y1, b), d1, Q.split(), 6.0) for b in y2]
            )

        ref = integrate_line(outer, d2, Q, 1.0)
        assert abs(v - ref) <= 1e-14 * abs(ref)


class TestPerIntegralIntervals:
    @pytest.mark.parametrize("chunk", [600, None])
    def test_many_matches_lone_calls(self, monkeypatch, chunk):
        # 50 oscillatory integrals, each on its own interval; a small chunk
        # splits them into several groups and integrand calls
        if chunk is not None:
            monkeypatch.setattr(quad, "_CHUNK_NODES", chunk)
        rng = np.random.RandomState(11)
        a = rng.uniform(-10.0, 2.0, 50)
        b = a + rng.uniform(0.5, 30.0, 50)
        w = rng.uniform(1.0, 20.0, 50)
        spec = QuadSpec(rel_tol=1e-10, abs_tol=1e-12)

        def f(x, k):
            return np.exp(1j * w[k] * x) / np.cosh(0.3 * x)

        many = quad._adaptive_many(f, a, b, spec, 5.0, 50, 2.0)
        lone = [
            quad._adaptive(lambda x: f(x, np.full(x.shape, k)), a[k], b[k], spec, 5.0, 2.0)
            for k in range(50)
        ]
        assert (many == np.array(lone)).all()

    def test_scalar_only_integrand(self):
        # each node is passed with its own integral's index
        a, b = np.array([0.0, -1.0, 2.0]), np.array([1.0, 3.0, 2.5])
        w = [1.0, 4.0, 9.0]
        got = quad._adaptive_many(lambda x, k: math.cos(w[k] * x), a, b, Q, 0.0, 3)
        want = [(math.sin(w[k] * b[k]) - math.sin(w[k] * a[k])) / w[k] for k in range(3)]
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_empty_interval_refused(self):
        with pytest.raises(DomainError):
            b = np.array([1.0, 0.0, 2.0])
            quad._adaptive_many(lambda x, k: x, np.zeros(3), b, Q, 0.0, 3)


class TestPanelSizing:
    """First panels span one oscillation period of the declared frequency."""

    @pytest.mark.parametrize("omega", [5.0, 40.0, 200.0, 1000.0])
    def test_high_frequency_accuracy(self, omega):
        v = integrate_line(
            lambda x: np.exp(-x * x) * np.cos(omega * x) ** 2,
            DecayProfile(1.0, 1.0),
            Q,
            freq_hint=2.0 * omega,
        )
        exact = 0.5 * math.sqrt(math.pi) * (1.0 + math.exp(-omega * omega))
        assert abs(v - exact) <= 1e-10 * exact

    def test_line_node_count(self):
        # eight panels per period took 137,220 nodes here
        nodes = 0

        def f(x):
            nonlocal nodes
            nodes += np.size(x)
            return np.exp(-x * x) * np.cos(40.0 * x) ** 2

        integrate_line(f, DecayProfile(1.0, 1.0), Q, freq_hint=80.0)
        assert nodes <= 25_000

    def test_plane_node_count(self):
        # eight panels per period took 4.21 M nodes here
        nodes = 0

        def f(a, b):
            nonlocal nodes
            nodes += np.size(a)
            return np.exp(-a * a - b * b + 20j * a)

        integrate_plane(f, SECH, SECH, Q, freq_hint1=20.0)
        assert nodes <= 700_000


class TestOracles:
    def test_constant_exact(self):
        assert oracle_trapezoid(lambda z: np.ones_like(z), 1.0, 3) == pytest.approx(2.0)

    def test_odd_function_zero(self):
        assert abs(oracle_trapezoid(lambda z: z, 5.0, 101)) < 1e-14

    def test_sech_to_machine(self):
        v = oracle_trapezoid(lambda z: 1.0 / np.cosh(z), 40.0, 16001)
        assert abs(v - math.pi) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            oracle_trapezoid(lambda z: z, 1.0, 4)
        with pytest.raises(DomainError):
            oracle_trapezoid_2d(lambda a, b: a, -1.0, 3)

    def test_bit_reproducible(self):
        f = lambda z: np.exp(1j * z) / np.cosh(z)
        assert oracle_trapezoid(f, 30.0, 4001) == oracle_trapezoid(f, 30.0, 4001)


class TestSpecs:
    def test_quadspec_validation(self):
        with pytest.raises(DomainError):
            QuadSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadSpec(max_nodes=32)
        with pytest.raises(DomainError):
            QuadSpec(truncation_safety=0.5)

    def test_decay_validation(self):
        with pytest.raises(DomainError):
            DecayProfile(0.0, 1.0)

    @given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_shifted_profile(self, rp, rn):
        d = DecayProfile(rp, rn, 0.0).shifted(1.5)
        assert d.center == 1.5 and d.rate_pos == rp


class TestOracleAgreement:
    def test_hyperbolic_kernel_draws(self):
        # adaptive vs fixed-grid oracle over random kernel-integrand draws
        rng = np.random.RandomState(42)
        for _ in range(20):
            g = rng.uniform(0.5, 1.6)
            lam = rng.uniform(-2.0, 2.0)
            f = lambda z: np.exp(1j * lam * z) * np.cosh(z) ** (-g)
            v = integrate_line(f, DecayProfile(g, g), Q, freq_hint=abs(lam))
            o = trapezoid_oracle(f, 44.0 / g, 32001)
            assert abs(v - o) <= 10 * Q.rel_tol * max(1.0, abs(v)) + 1e-10

    def test_gamma_kernel_draws(self):
        from hypq.kernels import _hatK_real_vec

        rng = np.random.RandomState(43)
        for _ in range(20):
            g = rng.uniform(0.5, 1.6)
            x0 = rng.uniform(-1.5, 1.5)
            f = lambda lam: _hatK_real_vec(lam, g) * np.exp(-1j * lam * x0)
            v = integrate_line(
                f, DecayProfile(math.pi / 2, math.pi / 2), Q, freq_hint=abs(x0)
            )
            o = trapezoid_oracle(f, 30.0, 32001)
            assert abs(v - o) <= 10 * Q.rel_tol * max(1.0, abs(v)) + 1e-9

    def test_relativistic_kernel_draws(self):
        from hypq.kernels import Coupling, kg_real_evaluator
        from hypq.special import Periods

        rng = np.random.RandomState(44)
        p = Periods(1.0, math.sqrt(2.0))
        kap = 2 * math.pi / p.product
        for _ in range(20):
            g = rng.uniform(0.5, 1.6)
            c = Coupling(g, p)
            x0 = rng.uniform(-1.0, 1.0)
            ev = kg_real_evaluator(c)
            rate = math.pi * c.gstar() / p.product
            f = lambda z: ev(z) * np.exp(1j * kap * x0 * z)
            v = integrate_line(f, DecayProfile(rate, rate), Q, freq_hint=kap * abs(x0))
            o = trapezoid_oracle(f, 42.0 / rate, 32001)
            assert abs(v - o) <= 10 * Q.rel_tol * max(1.0, abs(v)) + 1e-9
