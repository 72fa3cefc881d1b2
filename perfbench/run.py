"""hypq benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload eval_grid --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports hypq from its ``src``.  The work
happens in worker processes (worker.py) so each measured process starts cold;
this process only schedules them and aggregates.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
workload's fixed work is run untraced and then traced, and the metrics are
the per-layer ones (plus the tracing overhead).  A fuller record, with the
environment, goes to perfbench/out/.  See README.md for the workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("suite_quadrature", "suite_operators", "eval_grid", "sweep_couplings")
SETUP_SAMPLES = 9  # set-up time is the median of at least this many fresh processes
EVAL_SLICE_S = 1.0  # timed seconds per eval_grid process
# Workloads whose processes each run ops of their own (fresh couplings); in
# the others every pass repeats the same ops.
OWN_OPS = ("sweep_couplings",)
EVAL_TRACE_PASSES = 3  # fixed work of eval_grid in a traced comparison
WORKER_TIMEOUT_S = 170
ROADMAP_DELTA_N2_POWER_NODES = 49e6

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def spawn(spec: dict) -> dict:
    """Run one worker to completion and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {spec} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, fixed: bool) -> list[dict]:
    """Worker reports for one measurement.

    Suites: one cold pass over the check set in one process.  eval_grid:
    processes that each warm up, then repeat the grid for EVAL_SLICE_S.
    sweep: processes of SWEEP_STEPS fresh steps, different in each process.
    Both start new processes until ``seconds`` have passed; with ``fixed``
    they run one process with a fixed pass count instead, so a traced and an
    untraced run do the same work.
    """
    base = {"workload": workload, "seed": seed, "trace": trace, "mode": "run"}
    if workload.startswith("suite"):
        return [spawn({**base, "passes": 1})]
    if fixed:
        passes = EVAL_TRACE_PASSES if workload == "eval_grid" else 1
        return [spawn({**base, "passes": passes})]
    extra = {"budget_s": EVAL_SLICE_S} if workload == "eval_grid" else {"passes": 1}
    reports, start = [], time.perf_counter()
    while not reports or time.perf_counter() - start < seconds:
        reports.append(spawn({**base, **extra, "index": len(reports)}))
    return reports


def summarize(reports: list[dict], own_ops: bool = False) -> dict:
    """One run's figures from its worker reports.

    Repeated ops (eval_grid; a suite has one pass): each op's fastest wall
    and CPU time over all passes; wall_s and cpu_s are their sums, a pass at
    every op's best, and the latencies are taken over them.  The host's slow
    phases last seconds to a minute and slow every process by up to 2x, but
    each op of a run's ~120 eval_grid passes is likely to run outside them
    at least once.  With ``own_ops`` (sweep: each process draws its own
    steps): each process's figures, averaged over the processes.
    """
    if own_ops:
        tails = [stats.tail(r["op_min_s"]) for r in reports]
        wall, cpu = (
            statistics.fmean(stats.median(p[key] for p in r["passes"]) for r in reports)
            for key in ("wall_s", "cpu_s")
        )
        p50 = statistics.fmean(stats.median(r["op_min_s"]) for r in reports)
        tail, pct = statistics.fmean(t for t, _ in tails), tails[0][1]
        n_ops = len(reports[0]["op_min_s"])
    else:
        op_best = [min(col) for col in zip(*(r["op_min_s"] for r in reports))]
        cpu_best = [min(col) for col in zip(*(r["op_cpu_min_s"] for r in reports))]
        wall, cpu = math.fsum(op_best), math.fsum(cpu_best)
        p50 = stats.median(op_best)
        tail, pct = stats.tail(op_best)
        n_ops = len(op_best)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in reports),
        "op_p50_ms": 1e3 * p50,
        "op_tail_ms": 1e3 * tail,
        "tail_pct": pct,
        "ops_per_pass": n_ops,
        "passes": sum(len(r["passes"]) for r in reports),
        "processes": len(reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "errors": [e for r in reports for e in r["errors"]][:20],
    }


def commit() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        rev = proc.stdout.strip() or None
    h = hashlib.sha256()
    for f in sorted((SRC / "hypq").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"commit": rev, "src_sha256": h.hexdigest()[:16]}


def measure_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    reports = run_workload(workload, seed, seconds, trace=False, fixed=False)
    setups = [r["setup_s"] for r in reports]
    while len(setups) < SETUP_SAMPLES:
        spec = {"workload": workload, "seed": seed, "trace": False, "mode": "setup"}
        setups.append(spawn(spec)["setup_s"])
    s = summarize(reports, workload in OWN_OPS)
    s["setup_s"] = stats.median(setups)
    s["setup_samples"] = setups
    metrics = {k: {"value": s[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    detail = {**s, "environment": reports[0]["environment"], "op_seconds": reports[0]["op_seconds"]}
    return metrics, detail


def measure_layers(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    own = workload in OWN_OPS
    plain = summarize(run_workload(workload, seed, seconds, trace=False, fixed=True), own)
    (traced_report,) = run_workload(workload, seed, seconds, trace=True, fixed=True)
    traced = summarize([traced_report], own)
    layers = dict(traced_report["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    detail = {
        "untraced": plain,
        "traced": traced,
        "overhead_s": layers["trace.overhead_s"],
        "overhead_share": layers["trace.overhead_s"] / plain["wall_s"],
        "spans": traced_report["spans"],
        "hooks_missing": traced_report["hooks_missing"],
        "trace_file": traced_report["trace_file"],
        "environment": traced_report["environment"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": plain["errors"] + traced["errors"],
    }
    return metrics, detail


def report(workload: str, seed: int, trace: bool, metrics: dict, detail: dict) -> None:
    env = detail["environment"]
    print(f"hypq benchmark  workload={workload} seed={seed} trace={int(trace)}")
    print("environment  " + "  ".join(f"{k}={v}" for k, v in {**env, **detail["source"]}.items()))
    if trace:
        for k, m in metrics.items():
            print(f"  {k:48s} {m['value']:>16.6g} {m['unit']}")
        print(
            f"tracing overhead: {detail['overhead_s']:.3f} s "
            f"({100 * detail['overhead_share']:.1f}% of untraced wall_s), "
            f"{detail['spans']} spans -> {detail['trace_file']}"
        )
        if detail["hooks_missing"]:
            print("hooks not installed (target missing): " + ", ".join(detail["hooks_missing"]))
        nodes = metrics.get("suite.check.delta_n2_power.nodes", {}).get("value", 0)
        if workload == "suite_quadrature":
            print(
                f"delta_n2_power quad.nodes = {nodes / 1e6:.2f} M "
                f"(ROADMAP baseline {ROADMAP_DELTA_N2_POWER_NODES / 1e6:.0f} M)"
            )
    else:
        for k, m in metrics.items():
            print(f"  {k:12s} {m['value']:>14.6g} {m['unit']}")
        print(
            f"  op tail = {detail['tail_pct']} of {detail['ops_per_pass']} ops per pass; "
            f"{detail['passes']} pass(es) in {detail['processes']} process(es)"
        )
    attempted, failed = detail["attempted"], detail["failed"]
    print(f"  fail_frac    {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for e in detail["errors"]:
        print(f"  error: {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hypq" / "__init__.py").is_file():
        print(f"error: no hypq sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    measure = measure_layers if trace else measure_end_to_end
    metrics, detail = measure(args.workload, args.seed, args.seconds)
    detail["source"] = commit()
    attempted, failed = detail["attempted"], detail["failed"]
    detail["fail_frac"] = failed / attempted
    report(args.workload, args.seed, trace, metrics, detail)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "detail": detail}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
