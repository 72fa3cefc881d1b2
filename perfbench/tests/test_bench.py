"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hypq  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from hypq.errors import DomainError  # noqa: E402


def _bindings():
    """Identity of every attribute of every loaded hypq module."""
    return {
        (m.__name__, k): id(v) for m in spans.hypq_modules() for k, v in vars(m).items()
    }


# -- generators -------------------------------------------------------------


def test_eval_points_deterministic_per_seed():
    assert workloads.eval_points(7) == workloads.eval_points(7)
    assert workloads.eval_points(7) != workloads.eval_points(8)


def test_sweep_params_deterministic_per_seed_and_pass():
    assert workloads.sweep_params(3, 0) == workloads.sweep_params(3, 0)
    assert workloads.sweep_params(3, 0) != workloads.sweep_params(3, 1)
    assert workloads.sweep_params(3, 0) != workloads.sweep_params(4, 0)


def test_sweep_passes_share_the_coupling_values():
    # centered Latin hypercube: another pass pairs the same values differently
    a = [s["g"] for s in workloads.sweep_params(3, 0)]
    b = [s["g"] for s in workloads.sweep_params(4, 1)]
    assert a != b and sorted(a) == pytest.approx(sorted(b))
    assert min(a) > 0.6 and max(a) < 2.0


def test_suite_workloads_split_registered_checks():
    names = hypq.registry_names()
    assert len(set(workloads.ALL_CHECKS)) == len(workloads.ALL_CHECKS) == 44
    assert set(workloads.ALL_CHECKS) <= set(names)
    assert [n for n, _ in workloads.prepare("suite_operators", 5).ops] == list(
        workloads.SUITE_OPERATORS
    )


# -- wrappers ---------------------------------------------------------------


def test_untraced_run_installs_no_wrapper():
    before = _bindings()
    out = worker.main({"workload": "eval_grid", "seed": 2, "mode": "run", "trace": False, "passes": 1})
    assert _bindings() == before
    assert "layers" not in out and out["failed"] == 0


def test_traced_run_wraps_every_binding_and_restores():
    original = hypq.quad._adaptive
    t = spans.Tracer()
    handle = spans.install(t)
    try:
        assert not handle.missing
        assert hypq.quad._adaptive is not original
        assert hypq.operators._adaptive is hypq.quad._adaptive
        assert hypq.suite.apply_Q is hypq.operators.apply_Q is hypq.apply_Q
    finally:
        handle.restore()
    assert hypq.quad._adaptive is original and hypq.operators._adaptive is original


def test_traced_worker_restores_originals_and_counts():
    before = _bindings()
    out = worker.main({"workload": "eval_grid", "seed": 2, "mode": "run", "trace": True, "passes": 1})
    assert _bindings() == before
    layers = out["layers"]
    assert layers["wavefn.psi_hr.calls"] > 0 and layers["special.double_sine.calls"] > 0
    # every lookup either hits or builds (earlier tests may have filled the cache)
    assert layers["kernels.proxy.lookups"] > 0
    assert layers["kernels.proxy.hits"] + layers["kernels.proxy.builds"] == layers["kernels.proxy.lookups"]
    assert out["failed"] == 0


def test_quad_counters_on_one_check():
    t = spans.Tracer()
    handle = spans.install(t)
    try:
        prep = workloads.prepare("suite_quadrature", 1)
        prep.ops = [op for op in prep.ops if op[0] == "delta_n1_g1"]
        res = workloads.run_pass(prep, t)
    finally:
        handle.restore()
    assert res.ok == [True]
    m = spans.layer_metrics(t, ["delta_n1_g1"])
    assert m["quad.adaptive.calls"] == 3  # one integral per regulator step
    assert m["quad.nodes"] == m["suite.check.delta_n1_g1.nodes"] > 0
    assert m["quad.nodes"] % 15 == 0  # Gauss-Kronrod 15-point panels
    assert m["quad.scalar_nodes"] == 0


# -- self time --------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    #   0 root [0, 10]; 1 a [1, 4]; 2 b [3, 6] overlaps a; 3 a's child [2, 3];
    #   4 c [8, 12] runs past the root and is clipped to [8, 10]
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_tracer_self_time_with_fake_clock():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
    t = spans.Tracer(clock=lambda: next(ticks))
    outer = t.begin("quad.adaptive")  # 0
    a = t.begin("quad.integrand")  # 1
    t.finish(a)  # 2
    b = t.begin("quad.integrand")  # 5
    t.finish(b)  # 6
    t.finish(outer)  # 10
    by = t.by_name()
    assert by["quad.adaptive"] == {"calls": 1, "total_s": 10.0, "self_s": 8.0}
    assert by["quad.integrand"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


# -- failures ---------------------------------------------------------------


def test_fail_frac_counts_raised_exceptions():
    def raise_domain():
        raise DomainError("outside the strip")

    def raise_raw():
        raise OverflowError("math range error")

    prep = workloads.Prepared(
        "op",
        [("hypq_error", raise_domain), ("raw", raise_raw), ("false", lambda: False), ("ok", lambda: True)],
    )
    passes = [workloads.run_pass(prep), workloads.run_pass(prep)]
    assert passes[0].ok == [False, False, False, True]
    assert len(passes[0].errors) == 2
    assert workloads.count_failed(passes, [True] * 4) == 6


def test_count_failed_flags_nondeterminism_and_verdict():
    a = workloads.PassResult(0, 0, [0, 0], [True, True], [1.0, 2.0], [])
    b = workloads.PassResult(0, 0, [0, 0], [True, True], [1.0, 2.5], [])
    assert workloads.count_failed([a, b], [True, True]) == 1
    assert workloads.count_failed([a, a], [False, True]) == 2


def test_eval_grid_identities_catch_wrong_values():
    prep = workloads.prepare("eval_grid", 3)
    res = workloads.run_pass(prep)
    pts, crel = prep.meta["points"], prep.meta["crel"]
    assert all(workloads.check_eval_grid(pts, res.values, crel))
    for target in ("psi_MB", "psi_MB_rel", "S2", "gamma"):
        i = next(k for k, (t, _) in enumerate(pts) if t == target)
        bad = list(res.values)
        bad[i] = bad[i] * (1 + 1e-3) + 1e-3
        assert not workloads.check_eval_grid(pts, bad, crel)[i], target


def test_eval_grid_reference_for_default_seed():
    prep = workloads.prepare("eval_grid", workloads.DEFAULT_SEED)
    res = workloads.run_pass(prep)
    assert all(prep.verify(res.values))
    bad = list(res.values)
    bad[0] = bad[0] * (1 + 1e-6)  # K at its first point, off the stored value
    assert not prep.verify(bad)[0]


# -- statistics and the benchmark contract ------------------------------------


@pytest.mark.parametrize("n,label", [(1, "max"), (20, "max"), (21, "p52.38"), (50, "p80"), (560, "p98.21")])
def test_tail_is_highest_percentile_with_ten_beyond(n, label):
    value, pct = stats.tail(range(n))
    assert pct == label
    if label != "max":
        assert sum(x > value for x in range(n)) == 10


def _report(walls, op_min):
    passes = [{"wall_s": w, "cpu_s": w / 2} for w in walls]
    return {"passes": passes, "op_min_s": op_min, "op_cpu_min_s": [t / 2 for t in op_min],
            "peak_rss_mb": 10.0, "attempted": len(walls) * len(op_min), "failed": 0, "errors": []}


def test_summarize_repeated_ops_takes_fastest_time_per_op():
    ops_a = [0.5, 4.0] + [1.0] * 30
    ops_b = [2.0, 3.0] + [1.0] * 30
    s = run.summarize([_report([9.0, 6.0], ops_a), _report([7.0], ops_b)])
    # per-op minima are 0.5, 3.0 and thirty 1.0s: the 11th largest is 1.0
    assert s["wall_s"] == 33.5 and s["cpu_s"] == 16.75
    assert s["op_p50_ms"] == 1000.0 and s["ops_per_pass"] == 32
    assert s["op_tail_ms"] == 1000.0 and s["tail_pct"] == "p68.75"
    assert (s["passes"], s["processes"], s["attempted"]) == (3, 2, 96)


def test_summarize_own_ops_averages_the_processes():
    s = run.summarize([_report([1.0, 2.0, 9.0], [1.0, 2.0, 6.0]), _report([4.0], [3.0])], own_ops=True)
    assert s["wall_s"] == 3.0 and s["cpu_s"] == 1.5
    assert s["op_p50_ms"] == 2500.0 and s["op_tail_ms"] == 4500.0 and s["tail_pct"] == "max"


def test_run_pass_times_each_op():
    prep = workloads.Prepared("op", [("sleep", lambda: time.sleep(0.01)), ("spin", lambda: sum(range(10**5)))])
    res = workloads.run_pass(prep)
    assert res.latencies[0] >= 0.01 and len(res.op_cpu) == 2 and res.op_cpu[1] > 0
    assert sum(res.latencies) <= res.wall_s


def test_benchmark_json_names_match_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    t = spans.Tracer()
    emitted = list(spans.layer_metrics(t, workloads.ALL_CHECKS)) + ["trace.overhead_s"]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(per_layer) == emitted
    assert all(per_layer[k] == run.layer_unit(k) for k in emitted)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
