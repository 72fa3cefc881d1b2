"""Regenerate the stored eval_grid reference for the default seed.

    python3 perfbench/make_reference.py

Run it only when a change to hypq is meant to move eval_grid values, and say
why in that change; the benchmark checks the default seed against this file.
Values are written only if every op succeeds and passes the seed-independent
identities.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    prep = workloads.prepare("eval_grid", workloads.DEFAULT_SEED)
    result = workloads.run_pass(prep)
    pts = prep.meta["points"]
    ok = workloads.check_eval_grid(pts, result.values, prep.meta["crel"])
    if result.errors or not all(ok):
        print(f"refusing to write: {ok.count(False)} ops failed {result.errors[:5]}")
        return 1
    values = [[t, v.real, v.imag] for (t, _), v in zip(pts, result.values)]
    rows = ",\n".join(json.dumps(v) for v in values)
    workloads.REFERENCE.write_text(
        f'{{"seed": {workloads.DEFAULT_SEED}, "values": [\n{rows}\n]}}\n'
    )
    print(f"wrote {len(values)} values to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
