import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypq import quad
from hypq.errors import (
    BudgetExceededError,
    DomainError,
    NonConvergenceError,
    NonFiniteSampleError,
)
from hypq.quad import (
    DecayProfile,
    QuadSpec,
    integrate_line,
    integrate_plane,
)

from oracles import trapezoid_oracle, trapezoid_oracle_2d

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

    def test_first_round_past_one_call_and_budget_is_refused(self):
        # 952 core panels of one period each and 15 through the tails: 14,505
        # first-round nodes, more than one integrand call takes and more than
        # max_nodes, so the round is refused before any call
        calls = []

        def f(x):
            calls.append(x.size)
            return np.cos(100.0 * x) / np.cosh(x)

        with pytest.raises(BudgetExceededError) as exc:
            integrate_line(f, SECH, QuadSpec(max_nodes=10_000), freq_hint=100.0)
        assert math.isnan(exc.value.estimate) and exc.value.nodes_used == 14_505
        assert calls == []

    def test_round_limit_raises_instead_of_summing(self):
        # the x^(-1/2) endpoint singularity halves its panel's error bound only
        # by sqrt(2) per round, so 60 rounds stop near 1.7e-10, short of the
        # requested 1e-11 (the partial sum was returned silently, 6.3e-11 off)
        spec = QuadSpec(rel_tol=1e-11, abs_tol=1e-15)
        with pytest.raises(NonConvergenceError) as exc:
            integrate_line(lambda x: x**-0.5 * np.exp(-x), DecayProfile(1.0, math.inf), spec)
        e = exc.value
        assert e.error_bound > spec.rel_tol * abs(e.estimate)
        assert abs(e.estimate - math.sqrt(math.pi)) <= e.error_bound
        assert 0 < e.nodes_used < spec.max_nodes

    def test_round_limit_on_interior_singularity(self, monkeypatch):
        # |x - pi/10|^(-1/2) e^(-x^2) on [-6, 6], all of it core, at rel_tol
        # 1e-9 stops after 45 rounds on its own error estimate (the value is
        # 1.3e-8 off, below the estimator's sight); under a 30-round cap it
        # must raise, not sum
        monkeypatch.setattr(quad, "_MAX_ROUNDS", 30)
        f = lambda x: np.abs(x - math.pi / 10) ** -0.5 * np.exp(-x * x)
        with pytest.raises(NonConvergenceError) as exc:
            quad._adaptive(f, -6.0, 6.0, -6.0, 6.0, QuadSpec(rel_tol=1e-9), 0.0)
        assert exc.value.error_bound > 1e-9 * abs(exc.value.estimate)
        assert abs(exc.value.estimate - 3.45383793) < 1e-3

    def test_half_line(self):
        # a rate of inf on the negative side ends the interval at the center
        v = integrate_line(lambda x: np.exp(-x), DecayProfile(1.0, math.inf), Q)
        assert abs(v - 1.0) < 1e-12
        v = integrate_line(
            lambda x: np.exp(x - 2.0), DecayProfile(math.inf, 1.0, center=2.0), Q
        )
        assert abs(v - 1.0) < 1e-12

    def test_non_finite_sample(self):
        def bad(z):
            z = np.asarray(z, dtype=float)
            return np.where(np.abs(z - 0.3) < 0.05, np.nan, 1.0) / np.cosh(z)

        with pytest.raises(NonFiniteSampleError) as exc:
            integrate_line(bad, SECH, Q)
        assert abs(exc.value.abscissa - 0.3) < 0.06


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
        oracle = trapezoid_oracle_2d(f, 20.0, 4001)
        # the grid oracle carries an O(h^2)-level kink error along y1 = y2
        assert abs(v - oracle) <= 2e-7

    def test_one_sided_outer_axis(self):
        # y2 over [0, inf): half the Gaussian plane and its first y2 moment
        half = DecayProfile(1.0, math.inf)
        v = integrate_plane(lambda a, b: np.exp(-a * a - b * b), SECH, half, Q)
        assert abs(v - 0.5 * math.pi) < 5e-11
        v = integrate_plane(lambda a, b: b * np.exp(-a * a - b * b), SECH, half, Q)
        assert abs(v - 0.5 * math.sqrt(math.pi)) < 5e-11

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


    def test_integrand_calls_stay_small(self, gk_nodes):
        # the inner integrals of one outer array are advanced together, over
        # more nodes than one call takes: the integrand sees at most
        # _CALL_NODES of them per call
        calls = []

        def f(a, b):
            calls.append(a.size)
            return np.exp(-a * a - 0.5 * b * b + 1j * (6.0 * a + 2.0 * a * b))

        integrate_plane(
            f, DecayProfile(1.0, 1.0), DecayProfile(0.5, 0.5), Q, freq_hint1=6.0, freq_hint2=1.0
        )
        assert max(gk_nodes) > 8_190
        assert max(calls) <= 8_190


class TestPerIntegralIntervals:
    @pytest.mark.parametrize("chunk", [600, None])
    def test_many_matches_lone_calls(self, monkeypatch, chunk):
        # 50 oscillatory integrals, each on its own interval and core (some
        # cores reach past an end, some are points); a small chunk splits
        # their panels into many integrand calls, some across two integrals
        if chunk is not None:
            monkeypatch.setattr(quad, "_CALL_NODES", chunk)
        rng = np.random.RandomState(11)
        a = rng.uniform(-10.0, 2.0, 50)
        b = a + rng.uniform(0.5, 30.0, 50)
        w = rng.uniform(1.0, 20.0, 50)
        c0 = a + (b - a) * rng.uniform(-0.2, 0.8, 50)
        c1 = np.where(rng.uniform(size=50) < 0.2, c0, c0 + rng.uniform(0.0, 12.0, 50))
        spec = QuadSpec(rel_tol=1e-10, abs_tol=1e-12)

        def f(x, k):
            return np.exp(1j * w[k] * x) / np.cosh(0.3 * x)

        many = quad._adaptive_many(f, a, b, c0, c1, spec, 5.0, 50, 2.0)
        lone = [
            quad._adaptive(
                lambda x: f(x, np.full(x.shape, k)), a[k], b[k], c0[k], c1[k], spec, 5.0, 2.0
            )
            for k in range(50)
        ]
        assert (many == np.array(lone)).all()

    def test_scalar_only_integrand(self):
        # each node is passed with its own integral's index
        a, b = np.array([0.0, -1.0, 2.0]), np.array([1.0, 3.0, 2.5])
        w = [1.0, 4.0, 9.0]
        got = quad._adaptive_many(lambda x, k: math.cos(w[k] * x), a, b, a, a, Q, 0.0, 3)
        want = [(math.sin(w[k] * b[k]) - math.sin(w[k] * a[k])) / w[k] for k in range(3)]
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_empty_interval_refused(self):
        with pytest.raises(DomainError):
            b = np.array([1.0, 0.0, 2.0])
            quad._adaptive_many(lambda x, k: x, np.zeros(3), b, 0.0, 0.0, Q, 0.0, 3)


class TestPanelSizing:
    """First panels over an integral's core span at most one oscillation
    period of the declared frequency; through its tails they double."""

    def test_lone_first_round_tails_are_logarithmic(self, monkeypatch):
        # core [-2, 3] on [-40, 100]: 5 / w0 equal core panels, then widths
        # w0, 2 w0, 4 w0, ... to each cut, the last panel taking the rest
        first = []
        batch = quad._gk_batch

        def record(f, lo, hi, own):
            if not first:
                first.append((lo.copy(), hi.copy()))
            return batch(f, lo, hi, own)

        monkeypatch.setattr(quad, "_gk_batch", record)
        omega = 12.0
        w0 = 2.0 * math.pi / omega
        quad._adaptive(lambda x: np.exp(-x * x), -40.0, 100.0, -2.0, 3.0, Q, omega)
        lo, hi = first[0]
        assert lo[0] == -40.0 and hi[-1] == 100.0 and (hi[:-1] == lo[1:]).all()
        n_c = math.ceil(5.0 / w0)
        n_l = math.floor(math.log2(1.0 + 38.0 / w0))
        n_r = math.floor(math.log2(1.0 + 97.0 / w0))
        assert lo.size == n_l + n_c + n_r  # 23 panels, where uniform ones took 268
        core = slice(n_l, n_l + n_c)
        assert lo[core][0] == -2.0 and hi[core][-1] == 3.0
        assert np.allclose(hi[core] - lo[core], 5.0 / n_c, rtol=1e-12)
        widths = w0 * 2.0 ** np.arange(n_r - 1)
        assert np.allclose((hi - lo)[n_l + n_c : -1], widths, rtol=1e-12)
        assert np.allclose((hi - lo)[1:n_l][::-1], w0 * 2.0 ** np.arange(n_l - 1), rtol=1e-12)

    @given(
        st.floats(1e-3, 1e3),
        st.floats(0.2, 4.0),
        st.floats(0.3, 1.0),
        st.floats(0.0, 30.0),
        st.floats(-5.0, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_damped_cosine_closed_form(self, amp, rate, slack, omega, c):
        # P e^(-r |x - c|) cos(w (x - c)) integrates to 2 P r / (r^2 + w^2); the
        # declared rate is at most the true one, so the cut only lengthens
        v = integrate_line(
            lambda x: amp * np.exp(-rate * np.abs(x - c)) * np.cos(omega * (x - c)),
            DecayProfile(slack * rate, slack * rate, center=c),
            Q,
            freq_hint=omega,
        )
        exact = 2.0 * amp * rate / (rate * rate + omega * omega)
        assert abs(v - exact) <= max(Q.abs_tol, Q.rel_tol * abs(exact))

    @given(st.floats(0.3, 1.0), st.floats(0.0, 20.0), st.floats(-5.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_sech_cosine_closed_form(self, slack, omega, c):
        # sech(x - c) cos(w x) integrates to pi sech(pi w / 2) cos(w c); its
        # poles at distance pi/2 from the axis sit inside the wide tail panels
        v = integrate_line(
            lambda x: np.cos(omega * x) / np.cosh(x - c),
            DecayProfile(slack, slack, center=c),
            Q,
            freq_hint=omega,
        )
        exact = math.pi / math.cosh(0.5 * math.pi * omega) * math.cos(omega * c)
        assert abs(v - exact) <= max(Q.abs_tol, Q.rel_tol * abs(exact))

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


_C = math.pi / 10


def _log_distance(x):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x - _C))


# integrand, interval, closed-form integral, and whether every parent's
# estimate bounds |K_parent - (K_left + K_right)| at the splits; at a jump
# or a log singularity |K15 - G7| alone does not (its miss at c = pi/10
# reaches 1.8x on the step and 3.3x on the log, as with |K15 - G7| as the
# only estimate), and the decay estimate, capped by it, cannot raise it
_CLOSED_FORMS = {
    "near_pole_0.01": (lambda x: 1.0 / (x * x + 1e-4), -1.0, 1.0, 200.0 * math.atan(100.0), True),
    "near_pole_0.1": (lambda x: 1.0 / (x * x + 1e-2), -1.0, 1.0, 20.0 * math.atan(10.0), True),
    "gauss_cos": (
        lambda x: np.exp(-x * x) * np.cos(5.0 * x), -8.0, 8.0,
        math.sqrt(math.pi) * math.exp(-6.25), True,
    ),
    "sech_cos": (
        lambda x: np.cos(3.0 * x) / np.cosh(x), -40.0, 40.0, math.pi / math.cosh(1.5 * math.pi), True,
    ),
    "sech2_cos": (
        lambda x: np.cos(3.0 * x) / np.cosh(x) ** 2, -40.0, 40.0,
        3.0 * math.pi / math.sinh(1.5 * math.pi), True,
    ),
    "abs": (lambda x: np.abs(x - _C), -1.0, 1.0, 1.0 + _C * _C, True),
    "step": (lambda x: np.where(x > _C, 1.0, 0.0), -1.0, 1.0, 1.0 - _C, False),
    "log": (
        _log_distance, -1.0, 1.0, (1 - _C) * math.log(1 - _C) + (1 + _C) * math.log(1 + _C) - 2.0, False,
    ),
    "sqrt": (lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, 4.0 / 3.0, True),
}


class TestErrorEstimate:
    """A panel's estimate, min(|K15 - G7|, max(decay, rounding)), on integrands
    with closed-form integrals."""

    @pytest.mark.parametrize("name", list(_CLOSED_FORMS))
    def test_honest_on_closed_forms(self, monkeypatch, name):
        f, a, b, exact, bounded = _CLOSED_FORMS[name]
        panels = {}  # (lo, hi) -> (K15 value, estimate) of every panel evaluated
        batch = quad._gk_batch

        def record(g, lo, hi, own):
            val, err = batch(g, lo, hi, own)
            panels.update(zip(zip(lo.tolist(), hi.tolist()), zip(val.tolist(), err.tolist())))
            return val, err

        monkeypatch.setattr(quad, "_gk_batch", record)
        got = quad._adaptive(f, a, b, a, b, Q, 0.0)
        assert abs(got - exact) <= max(Q.abs_tol, Q.rel_tol * abs(exact))
        splits = 0
        for (lo, hi), (val, err) in panels.items():
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            y = np.asarray(f(mid + half * quad._K_NODES), dtype=complex)
            k_minus_g = half * abs(y @ (quad._K_WEIGHTS - quad._G_WEIGHTS))
            # never above |K15 - G7|, up to the rounding of the two sums
            slack = 4.0 * np.finfo(float).eps * half * (abs(y) @ quad._K_WEIGHTS)
            assert err <= k_minus_g + slack
            if (lo, mid) in panels and (mid, hi) in panels:
                splits += 1
                miss = abs(val - panels[lo, mid][0] - panels[mid, hi][0])
                assert miss <= err or (not bounded and err >= k_minus_g - slack)
        assert splits > 0

    def test_interior_singularity_outcomes_unchanged(self):
        # |x - pi/10|^(-1/2) e^(-x^2) on [-6, 6] ends as it did with |K15 -
        # G7| as the estimate: 3.5e-6 off at rel_tol 1e-6, 1.3e-8 off at 1e-8
        # and 1e-9 (the singular panel's estimate is below the tolerance, its
        # error is not), and a node on the singularity at 1e-10
        def f(x):
            with np.errstate(divide="ignore"):
                return np.abs(x - _C) ** -0.5 * np.exp(-x * x)

        exact = 3.4538379324614
        for rel_tol, off in ((1e-6, 3.5e-6), (1e-8, 1.3e-8), (1e-9, 1.3e-8)):
            spec = QuadSpec(rel_tol=rel_tol, abs_tol=1e-14)
            v = quad._adaptive(f, -6.0, 6.0, -6.0, 6.0, spec, 0.0)
            assert abs(v - exact) / exact == pytest.approx(off, rel=0.02)
        with pytest.raises(NonFiniteSampleError):
            quad._adaptive(f, -6.0, 6.0, -6.0, 6.0, QuadSpec(rel_tol=1e-10, abs_tol=1e-14), 0.0)

    def test_rounding_floor_is_capped(self):
        # cos(50 x) e^(-x^2) integrates to sqrt(pi) e^(-625); the rounding
        # floors, 50 eps of the integral of |f| in all, sum past abs_tol
        # 1e-14, so it converges only because |K15 - G7| caps each floor
        spec = QuadSpec(abs_tol=1e-14)
        v = integrate_line(
            lambda x: np.cos(50.0 * x) * np.exp(-x * x), DecayProfile(1.0, 1.0), spec, freq_hint=50.0
        )
        assert abs(v) <= spec.abs_tol


class TestOracles:
    # the fixed-grid references of tests/oracles.py, which freeze expected values

    def test_constant_exact(self):
        assert trapezoid_oracle(lambda z: np.ones_like(z), 1.0, 3) == pytest.approx(2.0)

    def test_odd_function_zero(self):
        assert abs(trapezoid_oracle(lambda z: z, 5.0, 101)) < 1e-14

    def test_sech_to_machine(self):
        v = trapezoid_oracle(lambda z: 1.0 / np.cosh(z), 40.0, 16001)
        assert abs(v - math.pi) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            trapezoid_oracle(lambda z: z, 1.0, 4)
        with pytest.raises(ValueError):
            trapezoid_oracle_2d(lambda a, b: a, -1.0, 3)

    def test_bit_reproducible(self):
        f = lambda z: np.exp(1j * z) / np.cosh(z)
        assert trapezoid_oracle(f, 30.0, 4001) == trapezoid_oracle(f, 30.0, 4001)


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
