"""One benchmark process: set up a workload, run its passes, print one JSON line.

Started by run.py as ``python3 perfbench/worker.py '<json spec>'``.  The spec
names the workload, seed, process index, mode ("setup": set up and stop; "run":
also run passes), whether to trace, and either a fixed pass count or a time
budget.  Set-up time runs from the start of this file to the first timed op.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {ln.split()[-1] for ln in maps if "openblas" in ln.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(spec: dict) -> dict:
    import hypq

    if not Path(hypq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hypq was imported from {hypq.__file__}, not from {SRC}")
    import spans
    import workloads

    tracer = installed = None
    if spec["trace"]:
        tracer = spans.Tracer()
        installed = spans.install(tracer)
    try:
        prep = workloads.prepare(spec["workload"], spec["seed"], spec.get("index", 0))
        out = {"setup_s": time.perf_counter() - T0}
        if spec["mode"] == "setup":
            return out
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(workloads.run_pass(prep, tracer))
            if spec.get("passes"):
                if len(passes) >= spec["passes"]:
                    break
            elif time.perf_counter() - start >= spec.get("budget_s", 0.0):
                break
    finally:
        if installed is not None:
            installed.restore()

    first = passes[0]
    verdict = prep.verify(first.values) if prep.verify else [True] * len(first.ok)
    failed = workloads.count_failed(passes, verdict)
    per_pass = [{"wall_s": p.wall_s, "cpu_s": p.cpu_s} for p in passes]
    lats = [[p.wall_s] if prep.pass_is_op else p.latencies for p in passes]
    cpus = [[p.cpu_s] if prep.pass_is_op else p.op_cpu for p in passes]
    errors = [e for p in passes for e in p.errors]
    out.update(
        {
            "passes": per_pass,
            # each op's fastest wall and CPU time over this process's passes
            "op_min_s": [min(col) for col in zip(*lats)],
            "op_cpu_min_s": [min(col) for col in zip(*cpus)],
            "attempted": sum(len(p.ok) for p in passes),
            "failed": failed,
            "errors": errors[:20],
            "op_seconds": dict(zip((lbl for lbl, _ in prep.ops), first.latencies))
            if prep.pass_is_op
            else {},
            "environment": environment(),
        }
    )
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, workloads.ALL_CHECKS)
        out["hooks_missing"] = installed.missing
        out["spans"] = len(tracer.name)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace_{spec['workload']}_seed{spec['seed']}.npz"
        tracer.save(path)
        out["trace_file"] = str(path.relative_to(HERE.parent))
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
