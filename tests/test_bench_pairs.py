"""tools/bench_pairs.py: the paired summary and its argument check."""
import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _pair(base, change):
    return {"base": {"metrics": {"wall_s": base}}, "change": {"metrics": {"wall_s": change}}}


def test_summarize_ratio_median_and_wins(bench_pairs):
    # ratios 0.5, 1.0 (a tie), 0.25, 1.5: median 0.75; one loss and one tie,
    # so the change wins two pairs and the tie counts for neither side
    pairs = [_pair(2.0, 1.0), _pair(3.0, 3.0), _pair(4.0, 1.0), _pair(2.0, 3.0)]
    out = bench_pairs.summarize(pairs)["wall_s"]
    assert out["ratio_median"] == pytest.approx(0.75)
    assert out["change_wins"] == 2
    assert out["base"]["median"] == pytest.approx(2.5)
    assert out["change"]["median"] == pytest.approx(2.0)


def test_single_pair_refused_before_any_run(bench_pairs, tmp_path, monkeypatch):
    def no_run(*args):
        raise AssertionError("a run was started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", ".", "--change", ".", "--pairs", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
