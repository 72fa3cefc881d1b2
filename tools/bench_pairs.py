"""Paired perfbench runs of two checkouts, written to a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --base ../parent --change . --pairs 10 \
        --out BENCH_7.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, on the
same seed, alternating which checkout goes first, so slow phases of the host
fall on both sides alike.  The file keeps every run's end-to-end metrics and,
per workload and metric, the median and quartiles of each side, the median
of the paired change/base ratios and the number of pairs the change won.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import WORKLOADS  # noqa: E402


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"failed": last["failed"], "attempted": last["attempted"],
            "metrics": {k: m["value"] for k, m in last["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        ratios = [c / b for b, c in zip(base, change)]
        out[name] = {
            "base": quartiles(base),
            "change": quartiles(change),
            "ratio_median": statistics.median(ratios),
            "change_wins": sum(c < b for b, c in zip(base, change)),
        }
    return out


def revision(checkout: Path) -> dict:
    """The checkout's git revision, if any, and a hash of its hypq sources."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    h = hashlib.sha256()
    for f in sorted((checkout / "src" / "hypq").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"commit": proc.stdout.strip() or None, "src_sha256": h.hexdigest()[:16]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout measured as the base")
    ap.add_argument("--change", type=Path, required=True, help="checkout measured as the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: the quartiles need two runs per side")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    record = {
        "command": "perfbench/run.py --trace 0, seed = pair index + 1",
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "revisions": {k: revision(v) for k, v in sides.items()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": i + 1, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, i + 1)
            pairs.append(pair)
            print(f"{time.strftime('%H:%M:%S')} {workload} pair {i + 1}: wall_s "
                  f"{pair['base']['metrics']['wall_s']:.3f} -> "
                  f"{pair['change']['metrics']['wall_s']:.3f}", flush=True)
        record["workloads"][workload] = {"summary": summarize(pairs), "pairs": pairs}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
