"""flexbid benchmark: time to a certified bid.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation solves one case of the workload (assemble, solve with ramp
refinement, required_ramp), gates the bid against its anchors, then
certifies it with ``check_feasibility`` on the five fixed criterion-6
signals plus seeded random ones, and checks that the 1 %-inflated bid
fails under sustained +1 and -1.  Operations run as a closed batch, one at
a time, cycling over the cases until --seconds is used up.  The seed drives
only the random signals, which are generated outside the timed region.

Solve and check times are CPU seconds of this process (time.process_time):
flexbid runs on one core, so they track wall time, but they leave out time
the process spends descheduled by other load on the host.

With --trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, taken from spans on every other
operation of each case (the untraced ones give the tracing overhead).  A
full record, spans included, goes to benchmarks/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

from tracing import Tracer
from workloads import (CHECK_TOL, CONTROL_SCALE, GAMMA_RTOL, HERE, RAMP_RTOL, SRC,
                       WORKLOADS, Case)

OUT = HERE / "out"
SETUP_PROBES = 7
#: clock of every solve, check and span time
CLOCK = time.process_time
#: operations per case, at least: the 7-day case must not rest on one sample,
#: and a traced run needs one traced and one untraced operation per case
MIN_REPS = 2
FAMILIES = ("power", "ramp", "state", "env_a", "env_b", "epi")

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("certify_signals_per_s", "signals/s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)

PER_LAYER = (
    ("solvers.first_solve_s", "s"),
    ("solvers.first_iterations", "count"),
    ("solvers.refine_solve_s", "s"),
    ("solvers.refine_iterations", "count"),
    ("solvers.refine_lp_nnz", "count"),
    ("solvers.solve_lp_calls", "count"),
    ("robust_lp.lp_rows", "count"),
    ("robust_lp.lp_cols", "count"),
    ("robust_lp.lp_nnz", "count"),
    ("robust_lp.lp_epigraph_cols", "count"),
    *((f"robust_lp.rows.{family}", "count") for family in FAMILIES),
    ("robust_lp.assemble_s", "s"),
    ("robust_lp.assemble_self_s", "s"),
    ("dynamics.discretize_scales_s", "s"),
    ("robust_lp.solve_self_s", "s"),
    ("robust_lp.required_ramp_s", "s"),
    ("robust_lp.build_market_matrices_s", "s"),
    ("robust_lp.build_market_matrices_calls", "count"),
    ("cli.load_problem_s", "s"),
    ("verify_sim.check_feasibility_ms.ramped", "ms"),
    ("verify_sim.check_feasibility_self_ms.ramped", "ms"),
    ("verify_sim.check_feasibility_ms.held", "ms"),
    ("verify_sim.check_feasibility_self_ms.held", "ms"),
    ("verify_sim.simulate_state_ms_per_signal", "ms"),
    ("verify_sim.average_signal_ms_per_signal", "ms"),
    ("policy.realized_schedules_ms_per_signal", "ms"),
    ("reference_map.reference_from_baseline_ms_per_signal", "ms"),
    ("verify_sim.signals_checked", "count"),
    ("verify_sim.signals_failed", "count"),
    ("trace.overhead_s", "s"),
    ("trace.solver_share", "ratio"),
)

#: per-signal metric -> span name
PER_SIGNAL = {
    "verify_sim.simulate_state_ms_per_signal": "verify_sim.simulate_state",
    "verify_sim.average_signal_ms_per_signal": "verify_sim.average_signal",
    "policy.realized_schedules_ms_per_signal": "policy.realized_schedules",
    "reference_map.reference_from_baseline_ms_per_signal": "reference_map.reference_from_baseline",
}

#: per-pass metric -> span total accumulated per operation
PER_PASS = {
    "solvers.first_solve_s": "first_solve_s",
    "solvers.first_iterations": "first_iterations",
    "solvers.refine_solve_s": "refine_solve_s",
    "solvers.refine_iterations": "refine_iterations",
    "solvers.refine_lp_nnz": "refine_lp_nnz",
    "solvers.solve_lp_calls": "solvers.solve_lp#calls",
    "robust_lp.assemble_s": "robust_lp.assemble",
    "robust_lp.assemble_self_s": "robust_lp.assemble#self",
    "dynamics.discretize_scales_s": "dynamics.discretize_scales",
    "robust_lp.solve_self_s": "robust_lp.solve#self",
    "robust_lp.required_ramp_s": "robust_lp.required_ramp",
    "robust_lp.build_market_matrices_s": "robust_lp.build_market_matrices",
    "robust_lp.build_market_matrices_calls": "robust_lp.build_market_matrices#calls",
}


@dataclasses.dataclass
class OpRecord:
    """One operation: solve one case, gate it, certify the bid."""

    case: str
    op: int
    traced: bool
    op_s: float = 0.0
    solve_s: float = 0.0
    check_s: list = dataclasses.field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    checks: int = 0
    gamma: float | None = None
    ramp: float | None = None
    counts: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)

    @property
    def certify_s(self) -> float:
        return sum(self.check_s)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int, loadavg) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_at_start": list(loadavg),
    }


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready`` line."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Runner:
    def __init__(self, workload: str, seed: int, tracer: Tracer | None):
        from flexbid import cli, robust_lp, solvers, verify_sim
        self.robust_lp, self.solvers, self.verify_sim = robust_lp, solvers, verify_sim
        self.workload = WORKLOADS[workload]
        self.tracer = tracer
        self.rngs = {case.name: np.random.default_rng([seed, i])
                     for i, case in enumerate(self.workload.cases)}
        with self._tracing("setup", -1, bool(tracer)):
            self.problems = {case.name: cli.load_problem(str(case.config))
                             for case in self.workload.cases}
        self.fixed = {name: self._fixed_signals(p.ts) for name, p in self.problems.items()}

    def _tracing(self, case: str, op: int, on: bool):
        return self.tracer.active(case, op) if on else contextlib.nullcontext()

    def _fixed_signals(self, ts):
        gen = self.verify_sim.gen_signal
        return [gen("sustained", ts, level=1.0), gen("sustained", ts, level=-1.0),
                gen("square_wave", ts, period=2 * ts.T_C), gen("square_wave", ts),
                gen("zero", ts)]

    def _plan(self, case: Case, seeds, policy, inflated):
        """Yield (signal, policy, must_pass) for one certification.  Each
        random signal is made just before its check, outside the timed
        call, so at most one is in memory."""
        ts = self.problems[case.name].ts
        fixed = self.fixed[case.name]
        for sig in fixed:
            yield sig, policy, True
        for k, seed in enumerate(seeds):
            kind = "uniform_random" if k % 2 == 0 else "clipped_random_walk"
            yield self.verify_sim.gen_signal(kind, ts, seed=int(seed)), policy, True
        for sig in fixed[:2]:                               # sustained +1 and -1
            yield sig, inflated, False

    # ---- one operation ----------------------------------------------------

    def _gate(self, case: Case, problem, sol, ramp) -> list[str]:
        if sol.status != self.solvers.OPTIMAL:
            return [f"status {sol.status}"]
        bad = []
        violation = sol.stats["max_violation"]
        if violation > self.robust_lp.FEASIBILITY_TOL:
            bad.append(f"max_violation {violation:.3e} > {self.robust_lp.FEASIBILITY_TOL:.0e}")
        if case.gamma is not None and not math.isclose(sol.gamma, case.gamma, rel_tol=GAMMA_RTOL):
            bad.append(f"gamma {sol.gamma!r} != anchor {case.gamma!r}")
        if case.ramp is not None and (ramp is None
                                      or not math.isclose(ramp, case.ramp, rel_tol=RAMP_RTOL)):
            bad.append(f"required ramp {ramp!r} != anchor {case.ramp!r}")
        if case.gamma_pct is not None:
            pct = 100.0 * sol.gamma / float(np.max(problem.params.p_hi))
            target, tol = case.gamma_pct
            if abs(pct - target) > tol:
                bad.append(f"gamma {pct:.4f} % of rated, anchor {target} +- {tol}")
        return bad

    def _program_counts(self, prog, sol) -> dict:
        rows = dict.fromkeys(FAMILIES, 0)
        _, first, sizes = np.unique(prog.row_kind, return_index=True, return_counts=True)
        for j, size in zip(first, sizes):
            family = prog.row_tag(int(j)).split("[")[0].split(".")[0]
            rows[family] = rows.get(family, 0) + int(size)
        return {
            "rows": int(prog.n_rows), "cols": int(prog.n_vars), "nnz": int(prog.A.nnz),
            "epigraph_cols": int(prog.n_vars - prog.layout.n_policy),
            "rows_by_family": rows,
            "iterations": int(sol.stats["iterations"]),
            "solver_calls": 1 + int("refined" in sol.stats),
        }

    def run_op(self, case: Case, op: int, traced: bool) -> OpRecord:
        rl, vs = self.robust_lp, self.verify_sim
        problem = self.problems[case.name]
        seeds = self.rngs[case.name].integers(0, 2**32, size=case.random_signals)
        rec = OpRecord(case=case.name, op=op, traced=traced)
        started = CLOCK()
        sol = None
        try:
            prog = rl.assemble(problem.params, problem.ts, problem.structure, problem.objective)
            sol = rl.solve(prog, refine_ramp=True)
            if sol.status == self.solvers.OPTIMAL:
                rec.gamma, rec.ramp = sol.gamma, rl.required_ramp(sol)
        except Exception:
            traceback.print_exc()
            rec.problems.append("solve raised")
        rec.solve_s = CLOCK() - started
        if sol is not None:
            rec.counts = self._program_counts(prog, sol)
            rec.problems += self._gate(case, problem, sol, rec.ramp)
        if rec.problems:
            rec.failed = 1
            rec.op_s = CLOCK() - started
            return rec

        inflated = dataclasses.replace(sol.policy, gamma=CONTROL_SCALE * sol.policy.gamma)
        for k, (sig, policy, must_pass) in enumerate(self._plan(case, seeds, sol.policy, inflated)):
            t = CLOCK()
            try:
                feasible = vs.check_feasibility(policy, sig, problem.params, problem.ts,
                                                tol=CHECK_TOL).feasible
            except Exception:
                traceback.print_exc()
                feasible = not must_pass
            rec.check_s.append(CLOCK() - t)
            if feasible != must_pass:
                rec.failed += 1
                rec.problems.append(f"signal {k}: {'certified signal infeasible' if must_pass else 'inflated control passed'}")
        rec.checks = len(rec.check_s)
        rec.attempted += rec.checks
        rec.op_s = CLOCK() - started
        return rec

    # ---- the closed batch -------------------------------------------------

    def run(self, seconds: float) -> list[OpRecord]:
        """Cycle over the cases until the next operation of a case would
        overrun the deadline; every case runs at least MIN_REPS times."""
        deadline = time.perf_counter() + seconds
        reps = Counter()
        last = {}
        records = []
        while True:
            progressed = False
            for case in self.workload.cases:
                if (reps[case.name] >= MIN_REPS
                        and time.perf_counter() + last[case.name] > deadline):
                    continue
                started = time.perf_counter()
                traced = self.tracer is not None and reps[case.name] % 2 == 0
                with self._tracing(case.name, len(records), traced):
                    records.append(self.run_op(case, len(records), traced))
                last[case.name] = time.perf_counter() - started
                reps[case.name] += 1
                progressed = True
            if not progressed:
                return records

    # ---- metrics ----------------------------------------------------------

    def by_case(self, records, traced=None):
        groups = {case.name: [] for case in self.workload.cases}
        for rec in records:
            if traced is None or rec.traced == traced:
                groups[rec.case].append(rec)
        return groups

    def end_to_end(self, records, setup_samples) -> dict:
        # a pass checks each case's signals once, each at the case's mean
        # time per check (its check time over its checks), so the rate does
        # not depend on how many operations of each case fit in the run
        groups = self.by_case(records)
        checks = check_s = 0.0
        for recs in groups.values():
            times = [t for r in recs for t in r.check_s]
            if times:
                per_op = max(r.checks for r in recs)
                checks += per_op
                check_s += per_op * sum(times) / len(times)
        attempted = sum(r.attempted for r in records)
        failed = sum(r.failed for r in records)
        return {
            "setup_s": statistics.median(setup_samples),
            "solve_s": sum(median_or_zero(r.solve_s for r in recs) for recs in groups.values()),
            "certify_signals_per_s": ratio(checks, check_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - failed / attempted,
        }

    def op_totals(self) -> dict[int, Counter]:
        """Span time, self time and call count per span name and operation,
        with solve_lp split into the first-stage solve and the refinement."""
        spans = self.tracer.spans
        own = self.tracer.self_times()
        totals: dict[int, Counter] = defaultdict(Counter)
        stage_of_parent = Counter()
        for i, span in enumerate(spans):
            acc = totals[span.op]
            acc[span.name] += span.duration
            acc[span.name + "#self"] += own[i]
            acc[span.name + "#calls"] += 1
            if span.name == "solvers.solve_lp":
                stage = "first" if stage_of_parent[span.parent] == 0 else "refine"
                stage_of_parent[span.parent] += 1
                acc[f"{stage}_solve_s"] += span.duration
                acc[f"{stage}_iterations"] += span.attrs["iterations"]
                if stage == "refine":
                    acc["refine_lp_nnz"] += span.attrs["nnz"]
        return totals

    def per_layer(self, records, totals) -> dict:
        traced = self.by_case(records, traced=True)
        untraced = self.by_case(records, traced=False)
        first = {name: recs[0] for name, recs in traced.items()}

        def per_pass(key):
            return sum(median_or_zero(totals[r.op][key] for r in recs) for recs in traced.values())

        def count(key):
            return sum(rec.counts.get(key, 0) for rec in first.values())

        held = {c.name for c in self.workload.cases if self.problems[c.name].ts.T_RP == 0}
        ops = [r for recs in traced.values() for r in recs]

        def check_ms(names, suffix=""):
            sel = [r for r in ops if r.case in names]
            spent = sum(totals[r.op]["verify_sim.check_feasibility" + suffix] for r in sel)
            return 1000.0 * ratio(spent, sum(r.checks for r in sel))

        ramped = {name for name in traced if name not in held}
        signals = sum(r.checks for r in ops)
        metrics = {name: per_pass(key) for name, key in PER_PASS.items()}
        metrics.update({
            "robust_lp.lp_rows": count("rows"),
            "robust_lp.lp_cols": count("cols"),
            "robust_lp.lp_nnz": count("nnz"),
            "robust_lp.lp_epigraph_cols": count("epigraph_cols"),
            **{f"robust_lp.rows.{family}": sum(rec.counts.get("rows_by_family", {}).get(family, 0)
                                              for rec in first.values())
               for family in FAMILIES},
            "cli.load_problem_s": totals[-1]["cli.load_problem"],
            "verify_sim.check_feasibility_ms.ramped": check_ms(ramped),
            "verify_sim.check_feasibility_self_ms.ramped": check_ms(ramped, "#self"),
            "verify_sim.check_feasibility_ms.held": check_ms(held),
            "verify_sim.check_feasibility_self_ms.held": check_ms(held, "#self"),
            **{name: 1000.0 * ratio(sum(totals[r.op][span] for r in ops), signals)
               for name, span in PER_SIGNAL.items()},
            "verify_sim.signals_checked": sum(rec.checks for rec in first.values()),
            "verify_sim.signals_failed": sum(r.failed for r in records if r.checks),
            "trace.overhead_s": sum(
                median_or_zero(r.op_s for r in traced[name])
                - median_or_zero(r.op_s for r in untraced[name])
                for name in traced if untraced[name]),
            "trace.solver_share": ratio(sum(totals[r.op]["solvers.solve_lp"] for r in ops),
                                        sum(r.solve_s for r in ops)),
        })
        units = dict(PER_LAYER)
        return {name: round(value) if units[name] == "count" else value
                for name, value in metrics.items()}


def traced_call_counts(records, totals) -> dict:
    """Solver and market-matrix calls per case, counted from spans: the
    market-matrix count has no untraced source, the solver count
    cross-checks the one read from ``sol.stats``."""
    out = {}
    for rec in records:
        if rec.traced and rec.case not in out:
            out[rec.case] = {
                "solver_calls": int(totals[rec.op]["solvers.solve_lp#calls"]),
                "market_matrix_calls": int(totals[rec.op]["robust_lp.build_market_matrices#calls"]),
            }
    return out


def case_counts(records) -> tuple[dict, bool]:
    """Counts of each case's first operation, and whether every later
    operation of the case repeated them exactly."""
    counts, stable = {}, True
    for rec in records:
        if rec.case not in counts:
            counts[rec.case] = rec.counts
        elif rec.counts != counts[rec.case]:
            stable = False
    return counts, stable


def report(args, env, groups, metrics, units, counts, stable) -> None:
    print(f"flexbid benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    records = [r for recs in groups.values() for r in recs]
    for name, recs in groups.items():
        solved = [r for r in recs if r.gamma is not None]
        print(f"case {name}: ops={len(recs)} "
              f"solve_s median={median_or_zero(r.solve_s for r in recs):.4f} "
              f"certify_s median={median_or_zero(r.certify_s for r in recs if r.checks):.4f} "
              f"checks/op={max(r.checks for r in recs)} "
              f"gamma_kw={solved[0].gamma if solved else float('nan'):.6f} "
              f"ramp_kw_per_s={solved[0].ramp if solved else float('nan'):.6f} "
              f"failed={sum(r.failed for r in recs)}/{sum(r.attempted for r in recs)}")
        for rec in recs:
            for problem in rec.problems:
                print(f"  FAIL op {rec.op}: {problem}")
        print(f"  counts {json.dumps(counts.get(name, {}), sort_keys=True)}")
    if not stable:
        print("counts NOT repeated exactly across operations of one case")
    for name, unit in units:
        print(f"metric {name} {metrics[name]!r} {unit}")
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    print(f"fail_frac {failed}/{attempted} = {failed / attempted!r} (ratio)")
    print("verdict " + ("correct" if failed == 0 else "INCORRECT"))


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "flexbid" / "__init__.py").is_file():
        print(f"flexbid sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flexbid
    if not os.path.abspath(flexbid.__file__).startswith(str(SRC)):
        print(f"imported flexbid from {flexbid.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed, loadavg)
    tracer = Tracer(args.workload, CLOCK) if args.trace else None
    runner = Runner(args.workload, args.seed, tracer)
    setup_samples = [] if args.trace else [probe_setup(args.workload)
                                           for _ in range(SETUP_PROBES)]
    records = runner.run(args.seconds)
    counts, stable = case_counts(records)

    if args.trace:
        totals = runner.op_totals()
        metrics, units = runner.per_layer(records, totals), PER_LAYER
        call_counts = traced_call_counts(records, totals)
    else:
        metrics, units = runner.end_to_end(records, setup_samples), END_TO_END
        call_counts = {}

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples_s": setup_samples,
        "counts": counts, "counts_stable": stable, "traced_call_counts": call_counts,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        "attempted": attempted, "failed": failed,
        "ops": [dataclasses.asdict(r) for r in records],
        "spans": [dataclasses.asdict(s) for s in tracer.spans] if tracer else [],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    report(args, env, runner.by_case(records), metrics, units, counts, stable)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
