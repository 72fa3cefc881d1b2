"""Integrand nodes of each `hypq check` row, and their total.

    python3 tools/node_counts.py

Runs every REGISTRY row once, in registry order, in this process, and counts
the abscissae of every Gauss-Kronrod batch it evaluates (15 per panel), by
wrapping quad._gk_batch as the tests' gk_nodes fixture does.  The last line
is the total over all rows.  The counts are deterministic: they depend on
the source alone, not on the host or its load.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypq import quad  # noqa: E402
from hypq.suite import registry_names, run_suite  # noqa: E402


def count_nodes() -> dict[str, int]:
    """Integrand nodes per REGISTRY row name, in registry order."""
    nodes = [0]
    batch = quad._gk_batch

    def counted(f, lo, hi, own):
        nodes[0] += lo.size * quad._K_NODES.size
        return batch(f, lo, hi, own)

    quad._gk_batch = counted
    counts = {}
    try:
        for name in registry_names():
            nodes[0] = 0
            run_suite([name])
            counts[name] = nodes[0]
    finally:
        quad._gk_batch = batch
    return counts


def main() -> None:
    counts = count_nodes()
    for name, n in counts.items():
        print(f"{name:<32} {n:>10,}")
    print(f"{'total':<32} {sum(counts.values()):>10,}")


if __name__ == "__main__":
    main()
