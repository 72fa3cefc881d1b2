"""tools/report_diff.py: moved fields, flipped verdicts and missing records."""
import importlib.util
import json
import math
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(name, arg, lhs_im=0.0, passed=True):
    return {"check_name": name, "params": {"arg": arg}, "lhs_re": 1.0, "lhs_im": lhs_im,
            "abs_err": 1e-15, "passed": passed}


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_moved_field_is_listed_and_passes(report_diff, tmp_path, capsys):
    base = _write(tmp_path / "base.jsonl", [_record("beta", 0.9, 2e-17), _record("beta", 1.7)])
    change = _write(tmp_path / "change.jsonl", [_record("beta", 0.9, -2e-17), _record("beta", 1.7)])
    assert report_diff.main([base, change]) == 0
    out = capsys.readouterr().out
    assert 'beta {"arg": 0.9}' in out
    assert "lhs_im: 2e-17 -> -2e-17 (abs 4e-17, rel 2)" in out
    assert "1.7" not in out  # the unmoved record is not printed
    assert "1 moved, 0 verdicts flipped; record lists match" in out


def test_move_is_shown_against_the_tolerance(report_diff, tmp_path, capsys):
    base = [{**_record("eigen", 0.1), "tolerance": 1e-8}, {**_record("trend", 1.0), "tolerance": math.inf}]
    change = [{**base[0], "lhs_re": 1.0 + 4e-16}, {**base[1], "lhs_re": 1.5}]
    assert report_diff.main([_write(tmp_path / "b.jsonl", base), _write(tmp_path / "c.jsonl", change)]) == 0
    out = capsys.readouterr().out
    assert 'eigen {"arg": 0.1}  tolerance 1e-08' in out
    assert "lhs_re: 1.0 -> 1.0000000000000004 (abs 4.44e-16, rel 4.44e-16, 4.44e-08 of tolerance)" in out
    # an infinite tolerance (a trend's first step) gives no ratio
    assert 'trend {"arg": 1.0}\n  lhs_re: 1.0 -> 1.5 (abs 0.5, rel 0.333)\n' in out


def test_flipped_verdict_fails(report_diff, tmp_path, capsys):
    base = _write(tmp_path / "base.jsonl", [_record("qq", 0.5)])
    change = _write(tmp_path / "change.jsonl", [_record("qq", 0.5, passed=False)])
    assert report_diff.main([base, change]) == 1
    assert 'verdict flipped: qq {"arg": 0.5}' in capsys.readouterr().out


def test_missing_record_fails(report_diff, tmp_path, capsys):
    base = _write(tmp_path / "base.jsonl", [_record("eigen", 0.1), _record("eigen", 0.2)])
    change = _write(tmp_path / "change.jsonl", [_record("eigen", 0.1)])
    assert report_diff.main([base, change]) == 1
    out = capsys.readouterr().out
    assert 'only in base: eigen {"arg": 0.2}' in out
    assert "record lists differ" in out


def test_takes_exactly_two_paths(report_diff):
    assert report_diff.main(["--pairs", "a.jsonl", "b.jsonl"]) == 2
