"""tools/node_counts.py: integrand nodes per REGISTRY row and their total."""
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
    counts = {name: int(n.replace(",", "")) for name, n in rows}
    # reduction_beta_1 compares closed forms and takes no quadrature
    assert counts == {
        "beta_relativistic": sum(gk_nodes),
        "reduction_beta_1": 0,
        "total": sum(gk_nodes),
    }
    assert sum(gk_nodes) > 0
    assert quad._gk_batch is wrapped
