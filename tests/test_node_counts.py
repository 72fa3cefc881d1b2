"""tools/node_counts.py: integrand nodes and minor page faults per REGISTRY row, and their totals."""
import importlib.util
import pathlib

from hypq import quad

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "node_counts.py"


def test_counts_match_the_batches_evaluated(capsys, monkeypatch, gk_nodes):
    spec = importlib.util.spec_from_file_location("node_counts", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "registry_names", lambda: ["beta_relativistic", "reduction_beta_1"])
    wrapped = quad._gk_batch
    mod.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert all(len(row) == 3 for row in rows)
    counts = {name: int(n.replace(",", "")) for name, n, _ in rows}
    faults = {name: int(f.replace(",", "")) for name, _, f in rows}
    # reduction_beta_1 compares closed forms and takes no quadrature
    assert counts == {
        "beta_relativistic": sum(gk_nodes),
        "reduction_beta_1": 0,
        "total": sum(gk_nodes),
    }
    assert sum(gk_nodes) > 0
    assert quad._gk_batch is wrapped
    # faults depend on the host, but are counts that add up to the total
    assert min(faults.values()) >= 0
    assert faults["total"] == faults["beta_relativistic"] + faults["reduction_beta_1"]
