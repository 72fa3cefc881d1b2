"""The four benchmark workloads: seeded inputs, timed passes and output checks.

Each workload turns a seed into a list of ops (label, callable).  A pass runs
every op once, in order, single-threaded; an op fails if it raises any
exception or if its output misses its check.  Functions are reached through
the ``hypq`` package at call time, so wrappers installed by the tracer are
seen.  See README.md in this directory for why each workload exists.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hypq

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
REFERENCE = HERE / "reference" / f"eval_grid_seed{DEFAULT_SEED}.json"

# The registry split is frozen so that a check added later does not change
# what these workloads measure.  Quadrature: quad does the work on numpy
# integrands written in suite.py.  Operators: the work is in the integrands,
# i.e. pair_transform and the kernel evaluators.
SUITE_QUADRATURE = (
    "beta_hyperbolic",
    "beta_gamma",
    "beta_relativistic",
    "reduction_Kg_to_hatK",
    "reduction_Kgstar_to_K",
    "reduction_beta_1",
    "reduction_beta_2",
    "reduction_S2_to_gamma",
    "det_route_g1",
    "delta_n1_g1",
    "delta_n1_general",
    "delta_n2_vandermonde",
    "delta_n2_power",
)
SUITE_OPERATORS = (
    "qq_n1_hyperbolic",
    "qq_n1_gamma",
    "qq_n1_relativistic",
    "qq_n2_hyperbolic_g1",
    "qq_n2_hyperbolic_g13",
    "qq_n2_gamma",
    "qq_n2_relativistic",
    "qlambda_hyperbolic",
    "qlambda_gamma",
    "qlambda_relativistic",
    "eigen_n1_hyperbolic",
    "eigen_n1_gamma",
    "eigen_n1_relativistic",
    "eigen_n2_hyperbolic",
    "eigen_n2_gamma",
    "eigen_n2_relativistic",
    "representation_equivalence",
    "representation_equivalence_rel",
    "dual_construction",
    "schrodinger_residual",
    "momentum_residual",
    "dual_difference",
    "psi_asymptotic",
    "hatK_asymptotic",
    "q_to_lambda_degeneration",
    "scalar_chain_hyperbolic",
    "scalar_chain_gamma",
    "scalar_chain_relativistic",
    "orthogonality_hyperbolic",
    "orthogonality_gamma",
    "orthogonality_relativistic",
)
ALL_CHECKS = SUITE_QUADRATURE + SUITE_OPERATORS

# eval_grid: points per target in one pass
EVAL_COUNTS = {
    "K": 120,
    "hatK": 60,
    "Kg": 40,
    "mu_hyperbolic": 30,
    "mu_gamma": 30,
    "mu_relativistic": 30,
    "S2": 60,
    "gamma": 60,
    "psi_HR": 30,
    "psi_MB": 30,
    "psi_HR_rel": 20,
    "psi_MB_rel": 20,
    "psi_factored": 30,
}
EVAL_G = 1.3
EVAL_REL = (0.8, 1.0, math.sqrt(2.0))  # g, omega1, omega2
SWEEP_STEPS = 50

# output tolerances
PSI_TOL = 1e-7  # psi_HR against psi_MB, hyperbolic/gamma (the suite's value)
PSI_REL_TOL = 1e-5  # relativistic (the suite's value)
EIGEN_TOL = 1e-8
S2_REFLECTION_TOL = 1e-11
GAMMA_RECURRENCE_TOL = 1e-12
REF_TOL = {"psi": 1e-7, "other": 1e-10}


@dataclass
class Prepared:
    """A workload's ops for one process, plus what is needed to check them."""

    root: str  # span name around each op in a traced run
    ops: list  # (label, callable)
    verify: object = None  # callable(values) -> list[bool], or None
    meta: dict = field(default_factory=dict)
    # latency statistics treat the whole pass as one op: a suite has too few,
    # too unequal checks for a stable per-check median or tail
    pass_is_op: bool = False


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    latencies: list
    ok: list
    values: list
    errors: list
    op_cpu: list = field(default_factory=list)  # process CPU time of each op


def run_pass(prep: Prepared, tracer=None) -> PassResult:
    """Run every op once; record its latency, CPU time, output and any exception."""
    lat, cpu, ok, vals, errors = [], [], [], [], []
    w0 = time.perf_counter()
    c0 = time.process_time()
    for label, fn in prep.ops:
        if tracer is not None:
            tracer.begin_op(label)
            idx = tracer.begin(prep.root)
        c = time.process_time()
        t0 = time.perf_counter()
        try:
            v = fn()
            good = True
        except Exception as exc:  # any exception is a failed op, not a crash
            v, good = None, False
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
        lat.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c)
        if tracer is not None:
            tracer.finish(idx)
        if good and isinstance(v, bool):
            good = v
        ok.append(good)
        vals.append(v)
    return PassResult(
        time.perf_counter() - w0, time.process_time() - c0, lat, ok, vals, errors, cpu
    )


def count_failed(passes: list[PassResult], verdict: list[bool]) -> int:
    """Failed ops over all passes: an op fails if it raised or missed its
    check in that pass, if its first-pass output failed ``verdict``, or if
    its output differs from the first pass (evaluation is deterministic)."""
    first = passes[0]
    failed = 0
    for p in passes:
        for i, good in enumerate(p.ok):
            failed += not (good and verdict[i] and p.values[i] == first.values[i])
    return failed


def prepare(name: str, seed: int, index: int = 0) -> Prepared:
    """Seeded inputs (and warm-up) for process ``index`` of the named workload."""
    if name == "suite_quadrature":
        return _suite(SUITE_QUADRATURE, seed)
    if name == "suite_operators":
        return _suite(SUITE_OPERATORS, seed)
    if name == "eval_grid":
        return _eval_grid(seed)
    if name == "sweep_couplings":
        return _sweep(seed, index)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite(checks, seed: int) -> Prepared:
    def check(n):
        def fn():
            res = hypq.run_suite([n], jobs=1, seed=seed)
            return bool(res) and all(r.passed for r in res)

        return fn

    return Prepared("suite.check", [(n, check(n)) for n in checks], pass_is_op=True)


# ---------------------------------------------------------------------------
# eval_grid
# ---------------------------------------------------------------------------


def _lhs(rng, n: int, *ranges, centered: bool = False) -> list[tuple]:
    """n Latin-hypercube points: each coordinate hits each of n equal bins
    once, so the mix of cheap and costly points barely depends on the seed.
    ``centered`` puts each point at the middle of its bins: the seed then
    only pairs the coordinates, and every seed reaches the same extremes."""
    def col(lo, hi):
        bins = rng.permutation(n)
        return lo + (hi - lo) * (bins + (0.5 if centered else rng.uniform(size=n))) / n

    cols = [col(lo, hi) for lo, hi in ranges]
    return list(zip(*(c.tolist() for c in cols)))


def eval_points(seed: int) -> list[tuple[str, tuple]]:
    """The seeded grid: (target, point) in evaluation order."""
    rng = np.random.default_rng([seed, 0])
    n = EVAL_COUNTS
    pts: list[tuple[str, tuple]] = []

    def add(target, *ranges):
        pts.extend((target, p) for p in _lhs(rng, n[target], *ranges))

    add("K", (-6.0, 6.0))
    add("hatK", (-5.0, 5.0), (-0.5, 0.5))  # poles sit at |Im lam| >= g
    add("Kg", (-5.0, 5.0), (-0.3, 0.3))  # poles sit at |Im lam| >= g/2
    for fam in ("hyperbolic", "gamma", "relativistic"):
        add(f"mu_{fam}", (-3.0, 3.0), (-3.0, 3.0))
    # Re z from -6 to 8 around the strip (0, 1 + sqrt 2): up to five shift steps
    add("S2", (-6.0, 8.0), (-1.5, 1.5))
    add("gamma", (-4.0, 6.0), (-3.0, 3.0))
    for hr, mb in (("psi_HR", "psi_MB"), ("psi_HR_rel", "psi_MB_rel")):
        four = _lhs(rng, n[hr], *[(-2.0, 2.0)] * 4)
        pts += [(hr, p) for p in four] + [(mb, p) for p in four]
    add("psi_factored", (0.0, 2.0), (-3.0, 3.0))
    return pts


def _eval_fn(target: str, p: tuple, c, crel, q):
    """The call that ``hypq eval`` makes for this target, as a closure."""
    H = hypq.KernelFamily
    if target == "K":
        return lambda: complex(hypq.kernel_K(p[0], c))
    if target == "hatK":
        return lambda: complex(hypq.kernel_hatK(complex(*p), c))
    if target == "Kg":
        return lambda: complex(hypq.kernel_Kg(complex(*p), crel))
    if target.startswith("mu_"):
        fam = target[3:]
        cc = crel if fam == "relativistic" else c
        return lambda: complex(hypq.measure(fam, p[0], p[1], cc))
    if target == "S2":
        return lambda: complex(hypq.double_sine(complex(*p), crel.periods))
    if target == "gamma":
        return lambda: complex(hypq.complex_gamma(complex(*p)))
    if target.startswith("psi_H") or target.startswith("psi_M"):
        rel = target.endswith("_rel")
        cc = crel if rel else c
        fam = H.RELATIVISTIC if rel else (H.HYPERBOLIC if "HR" in target else H.GAMMA)
        sp = hypq.SpectralPoint(p[0], p[1])
        pp = hypq.PositionPoint(p[2], p[3])
        if "HR" in target:
            return lambda: complex(hypq.psi_hr(sp, pp, cc, fam, q))
        return lambda: complex(hypq.psi_mb(sp, pp, cc, fam, q))
    if target == "psi_factored":
        return lambda: complex(hypq.psi_factored(p[0], p[1], c, q))
    raise ValueError(target)


def _eval_grid(seed: int) -> Prepared:
    c = hypq.Coupling(EVAL_G)
    g, w1, w2 = EVAL_REL
    crel = hypq.Coupling(g, hypq.Periods(w1, w2))
    q = hypq.QuadSpec()
    pts = eval_points(seed)
    ops = [(t, _eval_fn(t, p, c, crel, q)) for t, p in pts]
    # warm-up: one call per target fills the proxy caches of these couplings
    seen = set()
    for (t, _), (_, fn) in zip(pts, ops):
        if t not in seen:
            seen.add(t)
            try:
                fn()
            except Exception:  # a failing point is reported by the timed pass
                pass
    ref = None
    if seed == DEFAULT_SEED and REFERENCE.is_file():
        ref = json.loads(REFERENCE.read_text())["values"]

    def verify(values):
        return check_eval_grid(pts, values, crel, ref)

    return Prepared("eval.op", ops, verify, {"points": pts, "crel": crel})


def _close(a: complex, b: complex, tol: float, floor: float = 1.0) -> bool:
    return abs(a - b) <= tol * max(floor, abs(a), abs(b))


def check_eval_grid(pts, values, crel, ref=None) -> list[bool]:
    """Per-point verdicts from identities that hold for any seed (and the
    stored reference, when given): psi_HR equals psi_MB at the same point,
    S2(z) S2(w1 + w2 - z) = 1 and Gamma(z + 1) = z Gamma(z)."""
    ok = [v is not None and math.isfinite(v.real) and math.isfinite(v.imag) for v in values]
    index = {}
    for i, (t, p) in enumerate(pts):
        index.setdefault((t, p), i)
    total = crel.periods.total
    for i, (t, p) in enumerate(pts):
        if not ok[i]:
            continue
        v = values[i]
        try:
            if t in ("psi_HR", "psi_HR_rel"):
                j = index[(t.replace("HR", "MB"), p)]
                tol = PSI_REL_TOL if t.endswith("_rel") else PSI_TOL
                good = values[j] is not None and _close(v, values[j], tol)
                ok[i] = ok[i] and good
                ok[j] = ok[j] and good
            elif t == "S2":
                z = complex(*p)
                partner = hypq.double_sine(total - z, crel.periods)
                ok[i] = _close(v * partner, 1.0, S2_REFLECTION_TOL, 0.0)
            elif t == "gamma":
                z = complex(*p)
                ok[i] = _close(hypq.complex_gamma(z + 1.0), z * v, GAMMA_RECURRENCE_TOL, 0.0)
        except Exception:
            ok[i] = False
    if ref is not None:
        if len(ref) != len(pts):
            return [False] * len(pts)
        for i, ((t, _), (rt, re, im)) in enumerate(zip(pts, ref)):
            if ok[i]:
                r = complex(re, im)
                if t.startswith("psi"):
                    ok[i] = rt == t and _close(values[i], r, REF_TOL["psi"])
                else:
                    ok[i] = rt == t and _close(values[i], r, REF_TOL["other"], 0.0)
    return ok


# ---------------------------------------------------------------------------
# sweep_couplings
# ---------------------------------------------------------------------------


def sweep_params(seed: int, index: int) -> list[dict]:
    """Fresh couplings, periods and points for each step of one pass (a
    centered Latin hypercube over the ranges, so every pass has the same
    values of each coordinate and only pairs them differently)."""
    rng = np.random.default_rng([seed, 1, index])
    steps = []
    for g, w1, w2, frac, l1, l2, x1, x2, lam, label, x0 in _lhs(
        rng,
        SWEEP_STEPS,
        (0.6, 2.0),  # g, hyperbolic/gamma
        (0.8, 1.25),  # omega1
        (1.25, 2.0),  # omega2
        (0.25, 0.75),  # relativistic g as a share of omega1 + omega2
        *[(-1.5, 1.5)] * 4,  # lambda1, lambda2, x1, x2
        (-1.0, 1.0),  # eigenvalue relation: spectral parameter,
        (-0.5, 0.5),  # plane-wave label,
        (-1.5, 1.5),  # evaluation point
        centered=True,
    ):
        steps.append(
            {
                "g": g,
                "periods": (w1, w2),
                "g_rel": frac * (w1 + w2),
                "lam": (l1, l2),
                "x": (x1, x2),
                "eigen": (lam, label, x0),
            }
        )
    return steps


def sweep_step(s: dict) -> bool:
    """psi_HR = psi_MB (relativistic and hyperbolic/gamma) and the
    one-variable relativistic eigenvalue relation, at fresh couplings."""
    H = hypq.KernelFamily
    crel = hypq.Coupling(s["g_rel"], hypq.Periods(*s["periods"]))
    c = hypq.Coupling(s["g"])
    sp = hypq.SpectralPoint(*s["lam"])
    pp = hypq.PositionPoint(*s["x"])
    a = hypq.psi_hr(sp, pp, crel, H.RELATIVISTIC)
    b = hypq.psi_mb(sp, pp, crel, H.RELATIVISTIC)
    ok = _close(a, b, PSI_REL_TOL)
    a = hypq.psi_hr(sp, pp, c, H.HYPERBOLIC)
    b = hypq.psi_mb(sp, pp, c, H.GAMMA)
    ok = ok and _close(a, b, PSI_TOL)
    lam, label, x0 = s["eigen"]
    spec = hypq.OperatorSpec(H.RELATIVISTIC, 1, True, crel, lam)
    pw = hypq.plane_wave(label, H.RELATIVISTIC, crel)
    lhs = hypq.apply_Q(spec, pw, x0)
    rhs = hypq.eigenvalue(H.RELATIVISTIC, lam, label, crel.dual()) * complex(pw.fn(x0))
    return ok and _close(lhs, rhs, EIGEN_TOL)


def _sweep(seed: int, index: int) -> Prepared:
    ops = [("step", lambda s=s: sweep_step(s)) for s in sweep_params(seed, index)]
    return Prepared("sweep.step", ops)
