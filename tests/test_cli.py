import json
import math
import subprocess
import sys
import warnings

import pytest

from hypq.cli import main
from hypq.suite import REGISTRY

RUN = lambda *argv: main(list(argv))


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestEval:
    def test_k_at_origin(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json", {"command": "eval", "target": "K", "grid": {"points": [[0.0]]}}
        )
        assert RUN("eval", "--config", cfg) == 0
        line = json.loads(capsys.readouterr().out.strip())
        assert line["lhs_re"] == 1.0 and line["passed"] is True

    def test_s2_strip_points(self, tmp_path):
        out = tmp_path / "s2.jsonl"
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "command": "eval",
                "target": "S2",
                "periods": [1.0, 1.4142135623730951],
                "grid": {"points": [[0.3], [0.7], [1.1, 0.2], [1.9], [2.2, -0.4]]},
                "out": str(out),
            },
        )
        assert RUN("eval", "--config", cfg) == 0
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        assert len(lines) == 5
        assert all(math.isfinite(l["lhs_re"]) for l in lines)

    def test_s2_overflow_gives_error_record_and_continues(self, tmp_path):
        out = tmp_path / "s2.jsonl"
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "command": "eval",
                "target": "S2",
                "periods": [1.0, 1.4142135623730951],
                "grid": {"points": [[0.3], [-1e4, 0.3], [0.7]]},
                "out": str(out),
            },
        )
        # the overflowing point gives an error record and no ill-conditioning
        # warning, which belongs to a returned value only
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert RUN("eval", "--config", cfg) == 1
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        assert [l["passed"] for l in lines] == [True, False, True]
        assert "double_sine overflowed" in lines[1]["params"]["error"]
        assert math.isfinite(lines[2]["lhs_re"])

    def test_psi_grid_equivalence(self, tmp_path):
        pts = [[0.4, -0.3, 0.2, -0.6], [0.1, 0.6, -0.3, 0.5], [0.0, 0.9, 1.0, 0.2]]
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for target, out in (("psi_HR", out_a), ("psi_MB", out_b)):
            cfg = write_cfg(
                tmp_path,
                f"{target}.json",
                {
                    "command": "eval",
                    "target": target,
                    "g": 1.0,
                    "grid": {"points": pts},
                    "out": str(out),
                },
            )
            assert RUN("eval", "--config", cfg) == 0
        a = [json.loads(s) for s in out_a.read_text().splitlines()]
        b = [json.loads(s) for s in out_b.read_text().splitlines()]
        deltas = [
            abs(complex(x["lhs_re"], x["lhs_im"]) - complex(y["lhs_re"], y["lhs_im"]))
            for x, y in zip(a, b)
        ]
        assert max(deltas) < 1e-7

    def test_evaluation_failure_flushes_markers(self, tmp_path):
        # Kg without periods fails per point; partial output keeps the good
        # records and marks the bad one, exit code 1
        out = tmp_path / "kg.jsonl"
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "command": "eval",
                "target": "Kg",
                "g": 0.8,
                "grid": {"points": [[0.3]]},
                "out": str(out),
            },
        )
        assert RUN("eval", "--config", cfg) == 1
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["passed"] is False
        assert "error" in json.loads(rec["params"]) if isinstance(rec["params"], str) else "error" in rec["params"]

    def test_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"command": "eval", "target": "K"})
        assert RUN("eval", "--config", cfg) == 2  # no grid
        cfg = write_cfg(tmp_path, "c2.json", {"command": "eval", "bogus_field": 1})
        assert RUN("eval", "--config", cfg) == 2

    @pytest.mark.parametrize("flag", [("--tol", "1e-300"), ("--jobs", "2"), ("--seed", "7")])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, flag):
        # eval reads none of these; --tol and --seed used to change config_hash
        cfg = write_cfg(
            tmp_path, "c.json", {"command": "eval", "target": "K", "grid": {"points": [[0.0]]}}
        )
        assert RUN("eval", "--config", cfg, *flag) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCheck:
    def test_selected_checks_pass(self, tmp_path):
        out = tmp_path / "rep.jsonl"
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "command": "check",
                "checks": ["orthogonality_hyperbolic", "qq_n1_hyperbolic"],
                "out": str(out),
            },
        )
        assert RUN("check", "--config", cfg) == 0
        recs = [json.loads(s) for s in out.read_text().splitlines()]
        assert all(r["passed"] for r in recs)
        assert set(recs[0]) >= {
            "check_name",
            "params",
            "lhs_re",
            "lhs_im",
            "rhs_re",
            "rhs_im",
            "abs_err",
            "rel_err",
            "tolerance",
            "passed",
            "runtime_ms",
        }

    def test_forced_failure_with_tiny_tolerance(self, tmp_path):
        out = tmp_path / "rep.jsonl"
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {"command": "check", "checks": ["hatK_asymptotic"], "out": str(out)},
        )
        assert RUN("check", "--config", cfg, "--tol", "1e-16") == 1
        recs = [json.loads(s) for s in out.read_text().splitlines()]
        assert any(not r["passed"] for r in recs)

    def test_tol_keeps_each_records_scale(self, tmp_path):
        # eigen_n2_relativistic reads abs_err 1.5e-14 at |rhs| = 0.018, so
        # rel_err 8.5e-13: at --tol 1e-13 it fails on its relative scale
        out = tmp_path / "rep.jsonl"
        argv = ("--checks", "eigen_n2_relativistic", "--tol", "1e-13", "--out", str(out))
        assert RUN("check", *argv) == 1
        (rec,) = [json.loads(s) for s in out.read_text().splitlines()]
        assert rec["passed"] is False and rec["tolerance"] == 1e-13
        assert rec["abs_err"] <= 1e-13 < rec["rel_err"]

    def test_unknown_check(self, capsys):
        assert RUN("check", "--checks", "no_such_check") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown check names: ['no_such_check']; valid: [")

    def test_list(self, capsys):
        assert RUN("check", "--list") == 0
        assert "beta_hyperbolic" in capsys.readouterr().out

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    def test_quadrature_tolerance_refused(self, tmp_path, capsys, field):
        # each check holds its own tolerances; a config tolerance would be
        # hashed into the report without being used
        cfg = {"command": "check", "checks": ["hatK_asymptotic"], field: 1e-3}
        assert RUN("check", "--config", write_cfg(tmp_path, "c.json", cfg)) == 2
        assert f"'{field}'" in capsys.readouterr().err


class TestSweep:
    def test_reduction_sweep_monotone(self, tmp_path):
        out = tmp_path / "sw.jsonl"
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "command": "sweep",
                "checks": ["reduction_Kg_to_hatK"],
                "axis": {"name": "omega2", "values": [0.4, 0.2, 0.1, 0.05]},
                "out": str(out),
            },
        )
        assert RUN("sweep", "--config", cfg) == 0
        recs = [json.loads(s) for s in out.read_text().splitlines()]
        assert len(recs) == 4
        devs = [r["abs_err"] for r in recs]
        assert devs == sorted(devs, reverse=True)

    @staticmethod
    def _delta_sweep_decreases(tmp_path, check):
        out = tmp_path / "sw.jsonl"
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "command": "sweep",
                "checks": [check],
                "axis": {"name": "lambda", "values": [5.0, 10.0, 20.0, 40.0]},
                "eps": 1e-3,
                "out": str(out),
            },
        )
        rc = RUN("sweep", "--config", cfg)
        recs = [json.loads(s) for s in out.read_text().splitlines()]
        assert len(recs) == 4
        devs = [r["abs_err"] for r in recs]
        assert devs == sorted(devs, reverse=True)
        assert rc == 0

    def test_delta_sweep_decreasing(self, tmp_path):
        self._delta_sweep_decreases(tmp_path, "delta_n1_g1")

    def test_delta_sweep_decreasing_n2(self, tmp_path):
        # the n = 2 row reads about 0.203, 0.148, 0.107 and 0.077
        self._delta_sweep_decreases(tmp_path, "delta_n2_vandermonde")

    def test_single_point_axis(self, tmp_path):
        out = tmp_path / "sw.jsonl"
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "command": "sweep",
                "checks": ["reduction_S2_to_gamma"],
                "axis": {"name": "omega2", "values": [40.0]},
                "out": str(out),
            },
        )
        assert RUN("sweep", "--config", cfg) == 0
        assert len(out.read_text().splitlines()) == 1

    def test_tol_rejudges_each_step(self, tmp_path):
        # the S2_to_gamma deviations read 1.3e-4, 3.3e-5 and 8.2e-6; a deviation
        # bound's scale is 1, so at --tol 5e-5 only the first step fails
        out = tmp_path / "sw.jsonl"
        cfg = {"command": "sweep", "checks": ["reduction_S2_to_gamma"], "out": str(out)}
        cfg["axis"] = {"name": "omega2", "values": [10.0, 20.0, 40.0]}
        assert RUN("sweep", "--config", write_cfg(tmp_path, "c.json", cfg), "--tol", "5e-5") == 1
        recs = [json.loads(s) for s in out.read_text().splitlines()]
        assert [r["passed"] for r in recs] == [False, True, True]
        assert all(r["tolerance"] == 5e-5 for r in recs)

    def test_missing_axis(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"command": "sweep", "checks": ["delta_n1_g1"]})
        assert RUN("sweep", "--config", cfg) == 2

    @pytest.mark.parametrize("flag", [("--jobs", "2"), ("--seed", "7")])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, flag):
        cfg = {"command": "sweep", "checks": ["reduction_S2_to_gamma"]}
        cfg["axis"] = {"name": "omega2", "values": [40.0]}
        assert RUN("sweep", "--config", write_cfg(tmp_path, "c.json", cfg), *flag) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    def test_quadrature_tolerance_refused(self, tmp_path, capsys, field):
        cfg = {"command": "sweep", "checks": ["reduction_S2_to_gamma"], field: 1e-3}
        cfg["axis"] = {"name": "omega2", "values": [40.0]}
        assert RUN("sweep", "--config", write_cfg(tmp_path, "c.json", cfg)) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name",
        [
            "reduction_Kg_to_hatK",
            "reduction_Kgstar_to_K",
            "reduction_beta_1",
            "reduction_beta_2",
            "reduction_S2_to_gamma",
        ],
    )
    def test_reduction_sweep_matches_check(self, tmp_path, name):
        # a sweep over the registry row's own schedule is the registered check
        _, _, sched = REGISTRY[name]
        swept, checked = tmp_path / "sw.jsonl", tmp_path / "ck.jsonl"
        sweep = {"command": "sweep", "checks": [name], "out": str(swept)}
        sweep["axis"] = {"name": "omega2", "values": list(sched)}
        assert RUN("sweep", "--config", write_cfg(tmp_path, "s.json", sweep)) == 0
        assert RUN("check", "--checks", name, "--out", str(checked)) == 0
        a, b = ([json.loads(s) for s in p.read_text().splitlines()] for p in (swept, checked))
        for r in a + b:
            del r["config_hash"]
        assert len(a) == len(sched) and a == b

    @pytest.mark.parametrize("name", ["beta_hyperbolic", "eigen_n2_gamma", "no_such_check"])
    def test_unsweepable_name_lists_the_sweepable_rows(self, tmp_path, capsys, name):
        cfg = {"command": "sweep", "checks": [name], "axis": {"name": "x", "values": [1.0]}}
        assert RUN("sweep", "--config", write_cfg(tmp_path, "c.json", cfg)) == 2
        err = capsys.readouterr().err
        listed = err[err.index("[") : err.index("]")]
        named = {n for n in REGISTRY if f"'{n}'" in listed}
        assert named == {
            "reduction_Kg_to_hatK",
            "reduction_Kgstar_to_K",
            "reduction_beta_1",
            "reduction_beta_2",
            "reduction_S2_to_gamma",
            "delta_n1_g1",
            "delta_n1_general",
            "delta_n2_vandermonde",
            "delta_n2_power",
        }
        assert listed.count("'") == 2 * len(named)


class TestReport:
    def _make_report(self, tmp_path, name, checks):
        out = tmp_path / name
        cfg = write_cfg(
            tmp_path, name + ".json", {"command": "check", "checks": checks, "out": str(out)}
        )
        RUN("check", "--config", cfg)
        return str(out)

    def test_merge_two_passing(self, tmp_path, capsys):
        a = self._make_report(tmp_path, "a.jsonl", ["orthogonality_hyperbolic"])
        b = self._make_report(tmp_path, "b.jsonl", ["orthogonality_gamma"])
        assert RUN("report", a, b) == 0
        assert "2/2 checks passed" in capsys.readouterr().out

    def test_merge_with_failure(self, tmp_path):
        a = self._make_report(tmp_path, "a.jsonl", ["orthogonality_hyperbolic"])
        bad = tmp_path / "bad.jsonl"
        rec = json.loads(open(a).readline())
        rec["passed"] = False
        bad.write_text(json.dumps(rec) + "\n")
        assert RUN("report", a, str(bad)) == 1

    def test_empty_input_list(self):
        assert RUN("report") == 2

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "junk.jsonl"
        bad.write_text("this is not json\n")
        assert RUN("report", str(bad)) == 2

    def test_round_trip_verdicts(self, tmp_path, capsys):
        a = self._make_report(tmp_path, "a.jsonl", ["qq_n1_gamma", "orthogonality_gamma"])
        capsys.readouterr()
        assert RUN("report", a) == 0
        table = capsys.readouterr().out
        for line in table.splitlines():
            if line.startswith(("qq_", "orthogonality_")):
                assert "PASS" in line


class TestEncodings:
    def test_csv_and_jsonl_numeric_identity(self, tmp_path):
        import csv as csvmod

        outs = {}
        for fmt, name in (("json-lines", "r.jsonl"), ("csv", "r.csv")):
            out = tmp_path / name
            cfg = write_cfg(
                tmp_path,
                f"{fmt}.json",
                {
                    "command": "check",
                    "checks": ["orthogonality_hyperbolic"],
                    "out": str(out),
                    "format": fmt,
                },
            )
            assert RUN("check", "--config", cfg) == 0
            outs[fmt] = out
        jl = json.loads(outs["json-lines"].read_text().splitlines()[0])
        with open(outs["csv"]) as fh:
            row = list(csvmod.DictReader(fh))[0]
        for key in ("lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_err", "rel_err", "tolerance"):
            assert float(row[key]) == float(jl[key])
            # identical decimal serialization in both encodings
            assert row[key] == format(float(jl[key]), ".17g") or row[key] in ("0", "inf")

    def test_reports_byte_identical_across_jobs(self, tmp_path):
        outs = []
        for i, jobs in enumerate((1, 2)):
            out = tmp_path / f"r{i}.jsonl"
            cfg = write_cfg(
                tmp_path,
                f"j{i}.json",
                {
                    "command": "check",
                    "checks": ["qq_n1_hyperbolic", "orthogonality_relativistic"],
                    "out": str(out),
                    "jobs": jobs,
                },
            )
            assert RUN("check", "--config", cfg) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEntryPoint:
    def test_module_invocation(self):
        r = subprocess.run(
            [sys.executable, "-m", "hypq.cli", "check", "--list"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0
        assert "delta_n2_power" in r.stdout
