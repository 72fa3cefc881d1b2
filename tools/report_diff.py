"""Moved values between two `hypq check` reports.

    python3 tools/report_diff.py BASE.jsonl CHANGE.jsonl

A record is named by its check name and parameters.  For each record of
both reports, every field whose value moved is printed with the absolute and
the relative move (|change - base| / max(|base|, |change|)).  Records found
in only one report, and verdicts (``passed``) that flip, are printed too.
The exit status is 1 if a verdict flips or the two record lists differ, and
0 otherwise.
"""
from __future__ import annotations

import json
import sys

_IDENTITY = ("check_name", "params")


def read_report(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def record_key(rec: dict) -> str:
    return f"{rec['check_name']} {json.dumps(rec['params'], sort_keys=True)}"


def moved_fields(base: dict, change: dict) -> list[str]:
    """One line per field of the pair whose value moved."""
    out = []
    for name in sorted((set(base) | set(change)) - set(_IDENTITY)):
        a, b = base.get(name), change.get(name)
        if a == b:
            continue
        line = f"  {name}: {a!r} -> {b!r}"
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
            move = abs(b - a)
            line += f" (abs {move:.3g}, rel {move / max(abs(a), abs(b)):.3g})"
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
            lines.append(key)
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
