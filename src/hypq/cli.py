"""Batch front-end: evaluate functions on grids, run checks and sweeps, report.

Four subcommands:

  eval    evaluate one of {K, hatK, Kg, mu, S2, psi_HR, psi_MB, psi_factored}
          on a grid of points, one record per point
  check   run named identity checks (default: the full registry)
  sweep   run one trend check across a designated parameter axis
  report  merge json-lines reports and print a pass/fail table

Configuration comes from a JSON file (--config) with flag overrides; its
rel_tol and abs_tol apply to eval only, checks hold their own.  Records
are written as json-lines or CSV with identical 17-significant-digit decimal
serialization.  --tol re-evaluates every record's pass flag against the given
tolerance (useful to tighten or force-fail a run).  Reports are byte-identical across runs and across --jobs
values: runtimes and timestamps are zeroed/omitted unless --timings is given.
Exit codes: 0 all passed, 1 at least one failing check, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .errors import ConfigError, HypqError, UnknownCheckError
from .kernels import Coupling, KernelFamily, kernel_hatK, kernel_K, kernel_Kg, measure
from .quad import QuadSpec
from .special import Periods, double_sine
from .suite import (
    REGISTRY,
    CheckResult,
    RegSchedule,
    check_delta_sequence,
    check_reduction,
    registry_names,
    run_suite,
)
from .wavefn import PositionPoint, SpectralPoint, psi_factored, psi_hr, psi_mb

_EVAL_TARGETS = ("K", "hatK", "Kg", "mu", "S2", "psi_HR", "psi_MB", "psi_factored")


@dataclass
class RunConfig:
    command: str = ""
    family: str = "hyperbolic"
    g: float = 1.0
    periods: list | None = None
    target: str = ""
    grid: dict = field(default_factory=dict)
    checks: list | None = None
    axis: dict = field(default_factory=dict)
    eps: float = 1e-3
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    tol: float | None = None
    out: str = ""
    format: str = "json-lines"
    jobs: int = 1
    seed: int = 1234
    timings: bool = False

    def quad(self) -> QuadSpec:
        return QuadSpec(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def coupling(self) -> Coupling:
        p = Periods(*self.periods) if self.periods else None
        return Coupling(self.g, p)

    def hash(self) -> str:
        # execution-only fields (worker count, timing capture) do not change
        # the logical run and are excluded, keeping reports byte-identical
        # across --jobs values
        payload = {
            k: v for k, v in self.__dict__.items() if k not in ("timings", "jobs", "out")
        }
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        for k, v in raw.items():
            if not hasattr(cfg, k):
                raise ConfigError(f"unknown config field {k!r}")
            if k in ("rel_tol", "abs_tol") and args.command != "eval":
                raise ConfigError(f"config field {k!r} applies to eval only")
            setattr(cfg, k, v)
    cfg.command = args.command
    for name in ("out", "format", "jobs", "seed", "target", "tol"):
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    if getattr(args, "checks", None):
        cfg.checks = [s for chunk in args.checks for s in chunk.split(",") if s]
    if getattr(args, "timings", False):
        cfg.timings = True
    if cfg.format not in ("json-lines", "csv"):
        raise ConfigError(f"format must be json-lines or csv, got {cfg.format!r}")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    return cfg


# ---------------------------------------------------------------------------
# serialization (identical decimal text in both encodings)
# ---------------------------------------------------------------------------

_FIELDS = (
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
    "version",
    "config_hash",
    "timestamp",
)


def _fmt(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _record_fields(r: CheckResult, cfg_hash: str, timings: bool) -> dict:
    return {
        "check_name": r.check_name,
        "params": json.dumps(r.params, sort_keys=True, default=str),
        "lhs_re": _fmt(r.lhs.real),
        "lhs_im": _fmt(r.lhs.imag),
        "rhs_re": _fmt(r.rhs.real),
        "rhs_im": _fmt(r.rhs.imag),
        "abs_err": _fmt(r.abs_err),
        "rel_err": _fmt(r.rel_err),
        "tolerance": _fmt(r.tolerance),
        "passed": "true" if r.passed else "false",
        "runtime_ms": _fmt(r.runtime_ms if timings else 0.0),
        "version": __version__,
        "config_hash": cfg_hash,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S") if timings else "",
    }


def _jsonl_line(fields: dict) -> str:
    parts = []
    for k in _FIELDS:
        v = fields[k]
        if k in ("check_name", "version", "config_hash", "timestamp"):
            v = json.dumps(v)
        parts.append(f"{json.dumps(k)}: {v}")
    return "{" + ", ".join(parts) + "}"


def _write_records(records: list[dict], cfg: RunConfig) -> None:
    if cfg.format == "json-lines":
        text = "".join(_jsonl_line(r) + "\n" for r in records)
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_FIELDS)
        for r in records:
            w.writerow([r[k] for k in _FIELDS])
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _eval_one(cfg: RunConfig, point: list) -> tuple[dict, complex, float]:
    target = cfg.target
    c = cfg.coupling()
    q = cfg.quad()
    fam = KernelFamily(cfg.family)
    nominal = 1e-13

    def as_complex(vals) -> complex:
        return complex(vals[0], vals[1] if len(vals) > 1 else 0.0)

    if target == "K":
        v = complex(kernel_K(float(point[0]), c))
        return {"x": point[0], "g": c.g}, v, nominal * abs(v)
    if target == "hatK":
        z = as_complex(point)
        v = kernel_hatK(z, c)
        return {"lam_re": z.real, "lam_im": z.imag, "g": c.g}, v, nominal * abs(v)
    if target == "Kg":
        z = as_complex(point)
        v = kernel_Kg(z, c)
        return {"lam_re": z.real, "lam_im": z.imag, "g": c.g}, v, nominal * abs(v)
    if target == "mu":
        v = complex(measure(fam, float(point[0]), float(point[1]), c))
        return {"a": point[0], "b": point[1], "g": c.g, "family": fam.value}, v, nominal * abs(v)
    if target == "S2":
        z = as_complex(point)
        v = double_sine(z, c.require_periods())
        return {"z_re": z.real, "z_im": z.imag}, v, nominal * abs(v)
    if target in ("psi_HR", "psi_MB"):
        l1, l2, x1, x2 = (float(p) for p in point)
        sp, pp = SpectralPoint(l1, l2), PositionPoint(x1, x2)
        fn = psi_hr if target == "psi_HR" else psi_mb
        v = fn(sp, pp, c, fam, q)
        est = max(q.abs_tol, q.rel_tol * abs(v))
        return {"l1": l1, "l2": l2, "x1": x1, "x2": x2, "g": c.g}, v, est
    if target == "psi_factored":
        lam, x = float(point[0]), float(point[1])
        v = psi_factored(lam, x, c, q)
        est = max(q.abs_tol, q.rel_tol * abs(v))
        return {"lam": lam, "x": x, "g": c.g}, v, est
    raise ConfigError(f"unknown eval target {cfg.target!r}; options: {_EVAL_TARGETS}")


def cmd_eval(cfg: RunConfig) -> int:
    points = cfg.grid.get("points")
    if not points:
        raise ConfigError("eval needs grid.points, a non-empty list of point tuples")
    records = []
    failures = 0
    for pt in points:
        try:
            params, v, est = _eval_one(cfg, list(pt))
            rec = CheckResult(
                check_name=f"eval_{cfg.target}",
                params=params,
                lhs=v,
                rhs=v,
                abs_err=est,
                rel_err=est / max(abs(v), 1e-300),
                tolerance=math.inf,
                passed=True,
            )
        except HypqError as e:
            rec = CheckResult(
                check_name=f"eval_{cfg.target}",
                params={"point": list(pt), "error": str(e)},
                lhs=complex(float("nan")),
                rhs=complex(float("nan")),
                abs_err=float("inf"),
                rel_err=float("inf"),
                tolerance=math.inf,
                passed=False,
            )
            failures += 1
        records.append(rec)
    _write_records([_record_fields(r, cfg.hash(), cfg.timings) for r in records], cfg)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# check / sweep / report
# ---------------------------------------------------------------------------


def _print_table(results: list[CheckResult], stream=None) -> None:
    stream = stream or sys.stdout
    width = max((len(r.check_name) for r in results), default=10) + 2
    stream.write(f"{'check':<{width}}{'status':<8}{'abs_err':>12}{'rel_err':>12}{'tol':>10}\n")
    for r in results:
        stream.write(
            f"{r.check_name:<{width}}{'PASS' if r.passed else 'FAIL':<8}"
            f"{r.abs_err:>12.3e}{r.rel_err:>12.3e}{r.tolerance:>10.1e}\n"
        )
    npass = sum(r.passed for r in results)
    stream.write(f"{npass}/{len(results)} checks passed\n")


def _finish(results: list[CheckResult], cfg: RunConfig) -> int:
    """Apply the --tol override, write the records (and the table with --out)
    and return the exit code."""
    if cfg.tol is not None:
        for r in results:
            r.tolerance = cfg.tol
            r.passed = bool(r.abs_err <= cfg.tol or r.rel_err <= cfg.tol)
    _write_records([_record_fields(r, cfg.hash(), cfg.timings) for r in results], cfg)
    if cfg.out:
        _print_table(results)
    return 0 if all(r.passed for r in results) else 1


def cmd_check(cfg: RunConfig) -> int:
    return _finish(run_suite(cfg.checks, jobs=cfg.jobs, seed=cfg.seed), cfg)


def cmd_sweep(cfg: RunConfig) -> int:
    """Run one reduction or delta-sequence row of the registry along cfg.axis."""
    axis = cfg.axis
    if not axis or "values" not in axis or not axis["values"]:
        raise ConfigError("sweep needs an axis with a non-empty values list")
    values = [float(v) for v in axis["values"]]
    name = cfg.checks[0] if cfg.checks else ""
    fn, *fixed = REGISTRY.get(name, (None,))
    if fn is check_reduction:
        # the axis replaces the row's omega2 schedule
        results = check_reduction(fixed[0], values)
    elif fn is check_delta_sequence:
        # pair a descending damping schedule with the ascending regulator axis
        # (cfg.eps is the final, smallest damping); a fixed damping would make
        # the deviation column grow like 1 - e^(-eps L)
        regs = tuple(sorted(values))
        eps = tuple(cfg.eps * (regs[-1] / r) ** 1.5 for r in regs)
        results = check_delta_sequence(*fixed, schedule=RegSchedule(eps, regs))
    else:
        sweepable = [n for n, (f, *_) in REGISTRY.items()
                     if f in (check_reduction, check_delta_sequence)]
        raise ConfigError(f"sweepable checks: {sweepable}; got {name!r}")
    return _finish(results, cfg)


def cmd_report(paths: list[str]) -> int:
    if not paths:
        raise ConfigError("report needs at least one json-lines report file")
    rows = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    obj = json.loads(line)
                    rows.append(obj)
        except (OSError, json.JSONDecodeError, KeyError) as e:
            raise ConfigError(f"cannot parse report {path}: {e}") from e
    if not rows:
        raise ConfigError("no records found in the given reports")
    results = []
    for obj in rows:
        try:
            results.append(
                CheckResult(
                    check_name=str(obj["check_name"]),
                    params=obj.get("params", {}),
                    lhs=complex(float(obj["lhs_re"]), float(obj["lhs_im"])),
                    rhs=complex(float(obj["rhs_re"]), float(obj["rhs_im"])),
                    abs_err=float(obj["abs_err"]),
                    rel_err=float(obj["rel_err"]),
                    tolerance=float(obj["tolerance"]),
                    passed=bool(obj["passed"]),
                    runtime_ms=float(obj.get("runtime_ms", 0.0)),
                )
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"malformed record {obj!r}: {e}") from e
    _print_table(results)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypq",
        description="evaluate kernel special functions and verify operator identities",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json-lines", "csv"))
        p.add_argument("--tol", type=float, help="override pass tolerance")
        p.add_argument("--jobs", type=int, help="parallel workers for checks")
        p.add_argument("--seed", type=int, help="seed for random parameter draws")
        p.add_argument("--timings", action="store_true",
                       help="record real runtimes and timestamps (breaks byte-reproducibility)")

    pe = sub.add_parser("eval", help="evaluate a function on a grid")
    common(pe)
    pe.add_argument("--target", choices=_EVAL_TARGETS)

    pc = sub.add_parser("check", help="run named identity checks")
    common(pc)
    pc.add_argument("--checks", action="append", default=None,
                    help="comma-separated check names (default: all)")
    pc.add_argument("--list", action="store_true", help="list check names and exit")

    ps = sub.add_parser("sweep", help="run a trend check across a parameter axis")
    common(ps)
    ps.add_argument("--checks", action="append", default=None, help="the check to sweep")

    pr = sub.add_parser("report", help="merge json-lines reports into a table")
    pr.add_argument("paths", nargs="*", help="report files")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "report":
            return cmd_report(args.paths)
        if args.command == "check" and getattr(args, "list", False):
            sys.stdout.write("\n".join(registry_names()) + "\n")
            return 0
        cfg = _load_config(args)
        if cfg.command == "eval":
            return cmd_eval(cfg)
        if cfg.command == "check":
            return cmd_check(cfg)
        if cfg.command == "sweep":
            return cmd_sweep(cfg)
        raise ConfigError(f"unknown command {cfg.command!r}")
    except (ConfigError, UnknownCheckError) as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except HypqError as e:
        sys.stderr.write(f"evaluation failure: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
