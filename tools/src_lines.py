"""Non-blank source lines of each hypq module, and their total.

    python3 tools/src_lines.py

A line counts when it holds anything other than whitespace, so comments and
docstrings count.  Modules are listed largest first; the last line is the
total over src/hypq.
"""
from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hypq"


def count_lines() -> dict[str, int]:
    """Non-blank lines per module file name under src/hypq."""
    return {
        path.name: sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted(SRC.glob("*.py"))
    }


def main() -> None:
    counts = count_lines()
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<14} {n:>6,}")
    print(f"{'total':<14} {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main()
