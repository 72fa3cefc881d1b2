"""Moved values between two `hypq check` reports.

    python3 tools/report_diff.py BASE.jsonl CHANGE.jsonl

A record is named by its check name and parameters.  For each record of
both reports, every field whose value moved is printed with the absolute and
the relative move (|change - base| / max(|base|, |change|)).  A moved record
also shows its base tolerance, and each numeric move its ratio to that
tolerance (|change - base| / tolerance), when the tolerance is finite and
positive.  Records found
in only one report, and verdicts (``passed``) that flip, are printed too.
The exit status is 1 if a verdict flips or the two record lists differ, and
0 otherwise.
"""
from __future__ import annotations

import json
import math
import sys

_IDENTITY = ("check_name", "params")


def read_report(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def record_key(rec: dict) -> str:
    return f"{rec['check_name']} {json.dumps(rec['params'], sort_keys=True)}"


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _tolerance(rec: dict) -> float | None:
    """The record's tolerance if it is a finite positive number, else None."""
    tol = rec.get("tolerance")
    return tol if _number(tol) and 0 < tol < math.inf else None


def moved_fields(base: dict, change: dict) -> list[str]:
    """One line per field of the pair whose value moved."""
    out = []
    tol = _tolerance(base)
    for name in sorted((set(base) | set(change)) - set(_IDENTITY)):
        a, b = base.get(name), change.get(name)
        if a == b:
            continue
        line = f"  {name}: {a!r} -> {b!r}"
        if _number(a) and _number(b):
            move = abs(b - a)
            line += f" (abs {move:.3g}, rel {move / max(abs(a), abs(b)):.3g}"
            if tol is not None and name != "tolerance":
                line += f", {move / tol:.3g} of tolerance"
            line += ")"
        out.append(line)
    return out


def diff(base: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """The report lines and whether the change fails (a flip or a list mismatch)."""
    lines = []
    base_keys = [record_key(r) for r in base]
    change_keys = [record_key(r) for r in change]
    by_key = dict(zip(change_keys, change))
    for key in sorted(set(base_keys) - set(change_keys)):
        lines.append(f"only in base: {key}")
    for key in sorted(set(change_keys) - set(base_keys)):
        lines.append(f"only in change: {key}")
    flips = moved = 0
    for key, rec in zip(base_keys, base):
        other = by_key.get(key)
        if other is None:
            continue
        fields = moved_fields(rec, other)
        if fields:
            moved += 1
            tol = _tolerance(rec)
            lines.append(key if tol is None else f"{key}  tolerance {tol:.3g}")
            lines.extend(fields)
        if rec.get("passed") != other.get("passed"):
            flips += 1
            lines.append(f"verdict flipped: {key}")
    lists_differ = base_keys != change_keys
    lines.append(
        f"{len(base)} base and {len(change)} change records; {moved} moved, "
        f"{flips} verdicts flipped; record lists {'differ' if lists_differ else 'match'}"
    )
    return lines, lists_differ or flips > 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py BASE.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    lines, failed = diff(read_report(argv[0]), read_report(argv[1]))
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
