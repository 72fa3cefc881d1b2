"""Integrand nodes and minor page faults of each `hypq check` row, and their totals.

    python3 tools/node_counts.py

Runs every REGISTRY row once, in registry order, in this process.  The first
column counts the abscissae of every Gauss-Kronrod batch a row evaluates (15
per panel), by wrapping quad._gk_batch as the tests' gk_nodes fixture does.
The second counts the minor page faults the process takes over the row
(resource.getrusage's ru_minflt): first touches of freshly mapped pages, as
of an array the C allocator maps anew on every call.  The last line holds the totals over all rows.  The node counts are
deterministic: they depend on the source alone.  The fault counts are not:
they depend on the host, the allocator and the heap layout the earlier rows
left, so compare them only between runs on one host.
"""
from __future__ import annotations

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypq import quad  # noqa: E402
from hypq.suite import registry_names, run_suite  # noqa: E402


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def count_nodes() -> dict[str, tuple[int, int]]:
    """(integrand nodes, minor page faults) per REGISTRY row name, in registry order."""
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
            faults = _minor_faults()
            run_suite([name])
            counts[name] = (nodes[0], _minor_faults() - faults)
    finally:
        quad._gk_batch = batch
    return counts


def main() -> None:
    counts = count_nodes()
    for name, (n, faults) in counts.items():
        print(f"{name:<32} {n:>10,} {faults:>10,}")
    total_n, total_faults = (sum(col) for col in zip(*counts.values()))
    print(f"{'total':<32} {total_n:>10,} {total_faults:>10,}")


if __name__ == "__main__":
    main()
