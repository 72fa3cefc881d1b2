"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""
import json
import math
import time

import numpy as np

from hypq.kernels import Coupling, KernelFamily
from hypq.special import Periods, complex_gamma, double_sine
from hypq.suite import (
    check_beta,
    check_delta_sequence,
    check_dual_difference,
    check_eigen_n1,
    check_eigen_n2,
    check_g1_determinant_route,
    check_momentum,
    check_orthogonality_coefficient,
    check_qlambda,
    check_qq_commutativity,
    check_reduction,
    check_representation_equivalence,
    check_scalar_product_chain,
    check_schrodinger,
)

HYP, GAM, REL = KernelFamily.HYPERBOLIC, KernelFamily.GAMMA, KernelFamily.RELATIVISTIC
P12 = Periods(1.0, math.sqrt(2.0))
PAIRS = [Periods(1.0, 1.0), P12, Periods(0.7, 1.9)]


class _Budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *a):
        self.elapsed = time.perf_counter() - self.t0
        in_budget = self.elapsed < self.seconds
        status = "PASS" if (exc_type is None and in_budget) else "FAIL"
        print(
            f"criterion {self.label}: {status} "
            f"({self.elapsed:.1f}s of {self.seconds:.0f}s budget)"
        )
        if exc_type is None:
            assert in_budget, (
                f"criterion {self.label} exceeded its {self.seconds}s budget "
                f"({self.elapsed:.1f}s)"
            )
        return False


def test_criterion_1_special_functions():
    with _Budget("1 special functions", 5.0):
        rng = np.random.RandomState(2024)
        for p in PAIRS:
            for _ in range(100):
                z = complex(rng.uniform(0.05, p.total - 0.05), rng.uniform(-2, 2))
                s = double_sine(z, p)
                assert abs(s * double_sine(p.total - z, p) - 1.0) <= 1e-9
                r1 = s / double_sine(z + p.omega1, p)
                assert abs(r1 - 2 * np.sin(np.pi * z / p.omega2)) <= 1e-9 * max(
                    1.0, abs(r1)
                )
                r2 = s / double_sine(z + p.omega2, p)
                assert abs(r2 - 2 * np.sin(np.pi * z / p.omega1)) <= 1e-9 * max(
                    1.0, abs(r2)
                )
                swapped = double_sine(z, Periods(p.omega2, p.omega1))
                assert abs(s - swapped) <= 1e-9 * abs(s)
            z0 = complex(rng.uniform(0.1, p.total / 2), rng.uniform(-0.5, 0.5))
            for gam in (0.5, 2.0, math.pi):
                hom = double_sine(
                    gam * z0, Periods(gam * p.omega1, gam * p.omega2)
                )
                assert abs(hom - double_sine(z0, p)) <= 1e-9 * abs(hom)
        for _ in range(100):
            z = complex(rng.uniform(-7, 7), rng.uniform(0.05, 7) * rng.choice([-1, 1]))
            if abs(z) >= 10:
                continue
            refl = complex_gamma(z) * complex_gamma(1 - z) * np.sin(np.pi * z) / np.pi
            assert abs(refl - 1.0) <= 1e-11


def test_criterion_2_beta_integrals():
    with _Budget("2 beta integrals", 30.0):
        for g in (0.5, 1.0, 1.5):
            for lam in (0.0, 0.7, 2.1):
                r = check_beta(HYP, lam, Coupling(g), tol=1e-8)
                assert r.passed and r.abs_err <= 1e-8
            for z in (0.0, 0.9, 1.7):
                r = check_beta(GAM, z, Coupling(g), tol=1e-8)
                assert r.passed and r.abs_err <= 1e-8
        for x in (0.0, 0.4, 1.1):
            r = check_beta(REL, x, Coupling(0.8, P12), tol=1e-7)
            assert r.passed and r.abs_err <= 1e-7


def test_criterion_3_representation_equivalence():
    with _Budget("3 representation equivalence", 300.0):
        nonrel = check_representation_equivalence(False)
        assert len(nonrel) == 27
        assert all(r.passed for r in nonrel)
        rel = check_representation_equivalence(True)
        assert len(rel) == 8
        assert all(r.passed for r in rel)


def test_criterion_4_eigen_relations():
    with _Budget("4 eigen relations", 600.0):
        for fam in (HYP, GAM, REL):
            rs = check_eigen_n1(fam)
            assert len(rs) == 5 and all(r.passed and r.tolerance == 1e-8 for r in rs)
        r = check_eigen_n2(HYP)
        assert r.passed and r.tolerance == 1e-5
        r = check_eigen_n2(REL)
        assert r.passed and r.tolerance == 1e-4
        r = check_eigen_n2(GAM)
        assert r.passed and r.tolerance == 1e-4


def test_criterion_5_commutativity():
    with _Budget("5 commutativity", 600.0):
        for fam in (HYP, GAM, REL):
            r = check_qq_commutativity(fam, 1)
            assert r.passed and r.tolerance == 1e-6
        # held at 1e-6 here, below its row's 1e-5
        r = check_qq_commutativity(HYP, 2, {"g": 1.0})
        assert r.passed and r.rel_err <= 1e-6
        rs = check_g1_determinant_route()
        assert all(x.passed for x in rs)
        mutual = [x for x in rs if x.check_name == "det_route_vs_direct"][0]
        assert mutual.rel_err <= 1e-6
        r13 = check_qq_commutativity(HYP, 2, {"g": 1.3})
        assert r13.passed and r13.tolerance == 1e-5


def test_criterion_6_exchange_relations():
    with _Budget("6 exchange relations", 180.0):
        for fam in (HYP, GAM, REL):
            r = check_qlambda(fam)
            assert r.passed and r.tolerance == 1e-6, (fam, r.rel_err)


def test_criterion_7_equation_residuals():
    with _Budget("7 equation residuals", 180.0):
        rs = check_schrodinger()
        assert len(rs) == 3 and all(r.passed and r.tolerance == 1e-4 for r in rs)
        rm = check_momentum()
        assert len(rm) == 3 and all(r.passed and r.tolerance == 1e-6 for r in rm)
        rd = check_dual_difference()
        assert all(r.passed for r in rd)
        assert [r.tolerance for r in rd] == [1e-6, 1e-5]


def test_criterion_8_reductions():
    with _Budget("8 reductions", 120.0):
        schedules = {
            "Kg_to_hatK": (0.2, 0.1, 0.05),
            "Kgstar_to_K": (0.2, 0.1, 0.05),
            "beta_reduction_1": (0.2, 0.1, 0.05),
            "beta_reduction_2": (0.2, 0.1, 0.05),
            "S2_to_gamma": (10.0, 20.0, 40.0),
        }
        for which, sched in schedules.items():
            rs = check_reduction(which, sched)
            devs = [r.abs_err for r in rs]
            assert devs == sorted(devs, reverse=True), which
            assert devs[-1] < 5e-2
            assert all(r.passed for r in rs)


def test_criterion_9_delta_sequences():
    with _Budget("9 delta sequences", 300.0):
        for g, tol in ((1.0, 5e-2), (1.5, 5e-2)):
            rs = check_delta_sequence(1, g)
            devs = [r.abs_err for r in rs]
            assert devs == sorted(devs, reverse=True)
            assert devs[-1] < tol
            assert all(r.passed for r in rs)
        for g, tol in ((1.0, 1e-1), (0.8, 1e-1)):
            rs = check_delta_sequence(2, g)
            devs = [r.abs_err for r in rs]
            assert devs == sorted(devs, reverse=True)
            assert devs[-1] < tol
            assert all(r.passed for r in rs)


def test_criterion_10_scalar_product_chain():
    with _Budget("10 scalar product chain", 600.0):
        for fam, tol in ((HYP, 1e-5), (GAM, 1e-5), (REL, 1e-4)):
            steps = check_scalar_product_chain(fam)
            assert len(steps) == 3  # the two-variable step and both
            assert all(r.passed and r.tolerance == tol for r in steps)  # one-variable steps
        for fam in (HYP, GAM, REL):
            r = check_orthogonality_coefficient(fam)
            assert r.passed and r.tolerance == 1e-9


def test_criterion_11_deterministic_reports(tmp_path):
    with _Budget("11 determinism", 900.0):
        from hypq.cli import main

        blobs = []
        for i, jobs in enumerate((1, 8)):
            out = tmp_path / f"full{i}.jsonl"
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps({"command": "check", "jobs": jobs, "out": str(out)}))
            rc = main(["check", "--config", str(cfg)])
            assert rc == 0, "full default suite must pass"
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], "reports differ across --jobs"
