"""Command line front end: solve, verify, suite, export.

Problem configs are sectioned ``key = value`` text.  Durations carry a
unit suffix (s, min, h, d); physical quantities may carry their expected
unit (kW, kWh, kW/s, 1/h) which is checked when present.  Every config
error is reported with its file and line number and exits with the usage
code.

Exit codes: 0 solved/verified, 2 infeasible, 3 unbounded, 4 backend
failure, 5 verification found a violation, 6 the solver's point breaks its
own rows or bounds by more than the feasibility tolerance (reported with
``certified: false``), 64 bad usage or config, or a file that cannot be
read or written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import re
import sys

import numpy as np

from . import robust_lp, solvers, verify_sim
from .dynamics import SystemParams
from .market_time import IndexCounts, Timescales, derive_counts
from .policy import PolicyStructure, load_policy, save_policy
from .robust_lp import EXPECTED_PROFIT, MAX_CAPACITY, PRICE_SERIES, ObjectiveSpec, PriceData

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_BACKEND = 4
EXIT_VERIFY = 5
EXIT_UNCERTIFIED = 6
EXIT_USAGE = 64

_STATUS_EXIT = {
    solvers.OPTIMAL: EXIT_OK,
    solvers.INFEASIBLE: EXIT_INFEASIBLE,
    solvers.UNBOUNDED: EXIT_UNBOUNDED,
    solvers.FAILED: EXIT_BACKEND,
}


def _exit_code(status: str, certified: bool | None) -> int:
    if status == solvers.OPTIMAL and certified is False:
        return EXIT_UNCERTIFIED
    return _STATUS_EXIT.get(status, EXIT_USAGE)


_DURATION_UNITS = {"s": 1, "min": 60, "h": 3600, "d": 86400}
_DURATION_RE = re.compile(r"^(\d+)\s*([a-z]+)?$")


class ConfigError(Exception):
    """Config problem with location info; rendered as file:line: message."""

    def __init__(self, path: str, line: int | None, message: str):
        self.path = path
        self.line = line
        self.message = message
        where = f"{path}:{line}" if line else path
        super().__init__(f"{where}: {message}")


def parse_duration(text: str) -> int:
    """'90s', '15min', '2h', '1d' -> seconds.  Bare '0' is allowed."""
    m = _DURATION_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse duration {text!r}")
    value, unit = m.groups()
    if unit is None:
        if value == "0":
            return 0
        raise ValueError(f"duration {text!r} needs a unit suffix (s, min, h, d)")
    if unit not in _DURATION_UNITS:
        raise ValueError(f"unknown duration unit {unit!r} in {text!r}")
    return int(value) * _DURATION_UNITS[unit]


def parse_number(text: str, unit: str | None = None) -> float:
    """Float with an optional unit suffix that must match ``unit``."""
    cleaned = text.strip()
    if unit and cleaned.endswith(unit):
        cleaned = cleaned[: -len(unit)].strip()
    try:
        return float(cleaned)
    except ValueError:
        hint = f" (expected unit {unit})" if unit else ""
        raise ValueError(f"cannot parse number {text!r}{hint}")


def parse_vector(text: str, n: int, unit: str | None = None) -> np.ndarray:
    """Scalar broadcast to length ``n``, or a comma list of exactly ``n``."""
    cleaned = text.strip()
    if unit and cleaned.endswith(unit):
        cleaned = cleaned[: -len(unit)].strip()
    parts = [p for p in cleaned.split(",")]
    values = []
    for part in parts:
        try:
            values.append(float(part.strip()))
        except ValueError:
            raise ValueError(f"cannot parse {part.strip()!r} in vector {text!r}")
    if len(values) == 1:
        return np.full(n, values[0])
    if len(values) != n:
        raise ValueError(f"vector has {len(values)} entries, expected 1 or {n}")
    return np.array(values)


class _Config:
    """Sectioned key=value file with strict key checking."""

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[tuple[str, str], tuple[str, int]] = {}
        self.used: set[tuple[str, str]] = set()
        section = ""
        try:
            fh = open(path)
        except OSError as exc:
            raise ConfigError(path, None, str(exc))
        with fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.startswith("[") and line.endswith("]"):
                    section = line[1:-1].strip()
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(path, lineno, f"expected 'key = value', got {line!r}")
                spot = (section, key.strip())
                if spot in self.entries:
                    raise ConfigError(path, lineno, f"duplicate key {key.strip()!r} "
                                                    f"in section [{section}]")
                self.entries[spot] = (value.strip(), lineno)

    def _fetch(self, section: str, key: str):
        spot = (section, key)
        self.used.add(spot)
        return self.entries.get(spot)

    def _parse(self, section, key, converter, default, required):
        found = self._fetch(section, key)
        if found is None:
            if required:
                raise ConfigError(self.path, None, f"missing required key "
                                                   f"'{key}' in section [{section}]")
            return default
        value, lineno = found
        try:
            return converter(value)
        except ValueError as exc:
            raise ConfigError(self.path, lineno, str(exc))

    def duration(self, section, key, default=None, required=False):
        return self._parse(section, key, parse_duration, default, required)

    def number(self, section, key, unit=None, default=None, required=False):
        return self._parse(section, key, lambda t: parse_number(t, unit), default, required)

    def vector(self, section, key, n, unit=None, default=None, required=False):
        return self._parse(section, key, lambda t: parse_vector(t, n, unit), default, required)

    def integer(self, section, key, default=None, required=False):
        return self._parse(section, key, lambda t: int(t.strip()), default, required)

    def text(self, section, key, default=None, required=False):
        return self._parse(section, key, lambda t: t, default, required)

    def reject_unknown(self) -> None:
        leftover = sorted(set(self.entries) - self.used)
        if leftover:
            (section, key) = leftover[0]
            _, lineno = self.entries[(section, key)]
            raise ConfigError(self.path, lineno,
                              f"unknown key '{key}' in section [{section}]")


@dataclasses.dataclass
class Problem:
    ts: Timescales
    counts: IndexCounts
    params: SystemParams
    structure: PolicyStructure
    objective: ObjectiveSpec


def load_prices(path: str, counts: IndexCounts) -> PriceData:
    """CSV with columns series,index,value.

    Series c_DA / c_ID / c_up / c_dn / rho_up / rho_dn / mu are indexed on
    their own grid (1-based); c_RES ignores the index.
    """
    lengths = {name: getattr(counts, grid) for name, grid in PRICE_SERIES.items()}
    data = {name: np.zeros(n) for name, n in lengths.items()}
    seen = set()
    c_res = 0.0
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(path, None, str(exc))
    with fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0].strip().startswith("#"):
                continue
            if lineno == 1 and row[0].strip().lower() == "series":
                continue
            if len(row) != 3:
                raise ConfigError(path, lineno, f"expected 3 columns, got {len(row)}")
            series, idx_text, val_text = (col.strip() for col in row)
            try:
                value = float(val_text)
            except ValueError:
                raise ConfigError(path, lineno, f"cannot parse value {val_text!r}")
            if series == "c_RES":
                c_res = value
                seen.add(series)
                continue
            if series not in lengths:
                raise ConfigError(path, lineno, f"unknown series {series!r}")
            try:
                idx = int(idx_text)
            except ValueError:
                raise ConfigError(path, lineno, f"cannot parse index {idx_text!r}")
            if not 1 <= idx <= lengths[series]:
                raise ConfigError(path, lineno,
                                  f"index {idx} out of range 1..{lengths[series]} for {series}")
            data[series][idx - 1] = value
            seen.add(series)
    return PriceData(c_RES=c_res, **{name: data[name] for name in lengths if name in seen})


def load_problem(path: str) -> Problem:
    cfg = _Config(path)
    sec = "timescales"
    ts = Timescales(
        T_H=cfg.duration(sec, "T_H", required=True),
        T_RES=cfg.duration(sec, "T_RES", required=True),
        T_DA=cfg.duration(sec, "T_DA", required=True),
        T_ID=cfg.duration(sec, "T_ID", required=True),
        T_S=cfg.duration(sec, "T_S", required=True),
        T_C=cfg.duration(sec, "T_C", required=True),
        T_RP=cfg.duration(sec, "T_RP", default=0),
        T_ID_lead=cfg.duration(sec, "T_ID_lead", default=0),
        DA_gate_offset=cfg.duration(sec, "DA_gate_offset", default=11 * 3600),
    )
    try:
        counts = derive_counts(ts)
    except ValueError as exc:
        raise ConfigError(path, None, str(exc))

    sec = "system"
    n_s = counts.N_S
    x0_point = cfg.number(sec, "x0", unit="kWh")
    x0_min = cfg.number(sec, "x0_min", unit="kWh")
    x0_max = cfg.number(sec, "x0_max", unit="kWh")
    if x0_point is not None and (x0_min is not None or x0_max is not None):
        raise ConfigError(path, None, "give either x0 or the x0_min/x0_max pair, not both")
    if x0_point is not None:
        x0_min = x0_max = x0_point
    if x0_min is None or x0_max is None:
        raise ConfigError(path, None, "initial state required: x0 or both x0_min and x0_max")
    params = SystemParams(
        a=cfg.number(sec, "a", unit="1/h", default=0.0),
        b=cfg.number(sec, "b", default=0.0),
        c=cfg.number(sec, "c", default=1.0),
        u=cfg.vector(sec, "u", n_s, unit="kW", default=np.zeros(n_s)),
        p_lo=cfg.vector(sec, "p_min", n_s, unit="kW", required=True),
        p_hi=cfg.vector(sec, "p_max", n_s, unit="kW", required=True),
        r_lo=cfg.vector(sec, "r_min", n_s, unit="kW/s", default=np.full(n_s, -np.inf)),
        r_hi=cfg.vector(sec, "r_max", n_s, unit="kW/s", default=np.full(n_s, np.inf)),
        x_lo=cfg.vector(sec, "x_min", n_s, unit="kWh", required=True),
        x_hi=cfg.vector(sec, "x_max", n_s, unit="kWh", required=True),
        x0_min=x0_min,
        x0_max=x0_max,
    )

    sec = "policy"
    da_lb = cfg.integer(sec, "da_lookback", default=0)
    id_lb = cfg.integer(sec, "id_lookback", default=0)
    if da_lb < 0 or id_lb < 0:
        raise ConfigError(path, None, "lookback depths must be nonnegative")
    structure = PolicyStructure.build(counts, ts, da_lb, id_lb)

    sec = "objective"
    kind = cfg.text(sec, "kind", default=MAX_CAPACITY)
    if kind not in (MAX_CAPACITY, EXPECTED_PROFIT):
        raise ConfigError(path, None,
                          f"objective kind must be {MAX_CAPACITY} or {EXPECTED_PROFIT}, "
                          f"got {kind!r}")
    prices = PriceData()
    price_path = cfg.text(sec, "prices")
    if kind == EXPECTED_PROFIT:
        if price_path is None:
            raise ConfigError(path, None, "expected_profit objective needs a prices file")
        prices = load_prices(os.path.join(os.path.dirname(path), price_path), counts)
    objective = ObjectiveSpec(kind=kind, prices=prices)

    cfg.reject_unknown()
    problems = params.validate(n_s)
    if problems:
        raise ConfigError(path, None, "invalid system section:\n  " + "\n  ".join(problems))
    return Problem(ts=ts, counts=counts, params=params, structure=structure,
                   objective=objective)


# ---------------------------------------------------------------------------
# commands

def _solution_payload(sol: robust_lp.Solution) -> dict:
    payload = {
        "status": sol.status,
        "objective": sol.objective,
        "gamma_kw": sol.gamma,
        # numpy scalars are not JSON serializable; native ints stay ints
        "stats": {k: (v.item() if isinstance(v, np.generic) else v)
                  for k, v in sol.stats.items()},
    }
    if sol.policy is not None:
        payload["required_ramp_kw_per_s"] = robust_lp.required_ramp(sol)
    return payload


def _print_solution(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(f"status {payload['status']}")
    if payload.get("gamma_kw") is not None:
        print(f"gamma_kw {payload['gamma_kw']:.6f}")
        print(f"objective {payload['objective']:.6f}")
        print(f"required_ramp_kw_per_s {payload['required_ramp_kw_per_s']:.6f}")
        stats = payload["stats"]
        if not stats["certified"]:
            print(f"certified false max_violation {stats['max_violation']:.3e}")
        print(f"solver highs iterations {stats.get('iterations')} "
              f"wall_s {stats.get('wall_time', 0.0):.2f}")


def cmd_solve(args) -> int:
    problem = load_problem(args.config)
    prog = robust_lp.assemble(problem.params, problem.ts, problem.structure,
                              problem.objective)
    sol = robust_lp.solve(prog, refine_ramp=not args.no_refine_ramp)
    # write the policy first, so a file error prints no solution before it
    if sol.status == solvers.OPTIMAL and args.save_policy:
        save_policy(args.save_policy, sol.policy,
                    meta={"source_config": os.path.basename(args.config)})
        log.info("policy written to %s", args.save_policy)
    _print_solution(_solution_payload(sol), args.json)
    return _exit_code(sol.status, sol.stats.get("certified"))


def cmd_export(args) -> int:
    problem = load_problem(args.config)
    prog = robust_lp.assemble(problem.params, problem.ts, problem.structure,
                              problem.objective)
    solvers.write_mps(prog.as_lp_data(), args.out)
    print(f"wrote {prog.n_rows} rows, {prog.n_vars} columns to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = load_problem(args.config)
    policy, _meta = load_policy(args.policy)
    policy = dataclasses.replace(policy, gamma=policy.gamma * args.gamma_scale)
    if args.signal:
        sig = verify_sim.load_signal(args.signal)
    else:
        sig = verify_sim.gen_signal(args.kind, problem.ts, seed=args.seed,
                                    level=args.level, period=args.period)
    structure_problems = policy.validate_against(problem.structure)
    report = verify_sim.check_feasibility(policy, sig, problem.params, problem.ts,
                                          tol=args.tol)
    print(report.format())
    for problem_text in structure_problems:
        print(f"FAIL information structure: {problem_text}")
    if structure_problems:
        return EXIT_VERIFY
    return EXIT_OK if report.feasible else EXIT_VERIFY


def _suite_entry(name: str, path: str, refine: bool) -> dict:
    try:
        problem = load_problem(path)
        prog = robust_lp.assemble(problem.params, problem.ts, problem.structure,
                                  problem.objective)
        sol = robust_lp.solve(prog, refine_ramp=refine)
    except (ConfigError, ValueError) as exc:
        return {"name": name, "status": "config_error", "error": str(exc)}
    out = {"name": name, "status": sol.status}
    if sol.status == solvers.OPTIMAL:
        out["gamma_kw"] = sol.gamma
        out["objective"] = sol.objective
        out["required_ramp_kw_per_s"] = robust_lp.required_ramp(sol)
        out["wall_s"] = sol.stats.get("wall_time", 0.0)
        out["certified"] = sol.stats["certified"]
    return out


def load_suite(path: str) -> list[tuple[str, str]]:
    entries: list[tuple[str, str]] = []
    base = os.path.dirname(os.path.abspath(path))
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(path, None, str(exc))
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, sep, cfg = line.partition("=")
            if not sep:
                raise ConfigError(path, lineno, f"expected 'name = config.cfg', got {line!r}")
            name = name.strip()
            if any(existing == name for existing, _ in entries):
                raise ConfigError(path, lineno, f"duplicate suite entry {name!r}")
            entries.append((name, os.path.join(base, cfg.strip())))
    if not entries:
        raise ConfigError(path, None, "suite file lists no cases")
    return entries


def cmd_suite(args) -> int:
    entries = load_suite(args.suite)
    results = [_suite_entry(name, path, not args.no_refine_ramp) for name, path in entries]
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        width = max(len(name) for name, _ in entries)
        for r in results:
            if r["status"] == solvers.OPTIMAL:
                print(f"{r['name']:<{width}}  status {r['status']}  "
                      f"gamma_kw {r['gamma_kw']:.6f}  "
                      f"required_ramp_kw_per_s {r['required_ramp_kw_per_s']:.6f}"
                      + ("" if r["certified"] else "  certified false"))
            else:
                print(f"{r['name']:<{width}}  status {r['status']}"
                      + (f"  error {r['error']}" if "error" in r else ""))
    return max(_exit_code(r["status"], r.get("certified")) for r in results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexbid",
        description="Robust energy and reserve bidding for flexible systems.",
    )
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="assemble and solve one problem config")
    p_solve.add_argument("config")
    p_solve.add_argument("--no-refine-ramp", action="store_true",
                         help="skip the second solve that flattens the reference")
    p_solve.add_argument("--save-policy", metavar="FILE")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="simulate a policy against a signal")
    p_verify.add_argument("config")
    p_verify.add_argument("--policy", required=True)
    p_verify.add_argument("--signal", metavar="FILE")
    p_verify.add_argument("--kind", default="uniform_random",
                          choices=verify_sim.SIGNAL_KINDS)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--level", type=float, default=1.0)
    p_verify.add_argument("--period", type=int)
    p_verify.add_argument("--tol", type=float, default=1e-6)
    p_verify.add_argument("--gamma-scale", type=float, default=1.0,
                          help="inflate the policy's reserve capacity before checking")
    p_verify.set_defaults(func=cmd_verify)

    p_suite = sub.add_parser("suite", help="solve every config listed in a suite file")
    p_suite.add_argument("suite")
    p_suite.add_argument("--no-refine-ramp", action="store_true")
    p_suite.add_argument("--json", action="store_true")
    p_suite.set_defaults(func=cmd_suite)

    p_export = sub.add_parser(
        "export", help="write the minimize form of the assembled program as an MPS file")
    p_export.add_argument("config")
    p_export.add_argument("--out", required=True, metavar="FILE.mps")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    logging.basicConfig(level=getattr(logging, args.log_level))
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
