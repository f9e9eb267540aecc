"""Self-test of the benchmark (not collected by pytest; takes a few minutes).

Usage (from the root of a checkout):

    python3 benchmarks/selftest.py [workload ...]

Checks that
- BENCHMARK.json names exactly the metrics run.py prints, with the same units;
- two untraced runs on different seeds and one traced run are correct and
  give identical counts (rows per family, nonzeros, iterations, solver
  calls), and every operation of a case repeats them;
- the solver call count read from ``sol.stats`` matches the calls the traced
  run counted;
- run.py exits non-zero without a result in a directory that holds only
  BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import END_TO_END, OUT, PER_LAYER
from workloads import HERE, ROOT, WORKLOADS

RUN = ["benchmarks/run.py"]


def check(ok: bool, what: str) -> bool:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    return ok


def run(workload: str, seed: int, trace: int, cwd=ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_manifest() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END),
               "BENCHMARK.json end_to_end matches run.py")
    ok &= check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER),
                "BENCHMARK.json per_layer matches run.py")
    ok &= check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
                "BENCHMARK.json workloads match workloads.py")
    return ok


def check_workload(workload: str) -> bool:
    ok = True
    records = []
    for seed, trace in ((1, 0), (2, 0), (1, 1)):
        code, lines = run(workload, seed, trace)
        result = json.loads(lines[-1]) if code == 0 and lines else {}
        ok &= check(code == 0 and result.get("correct") is True,
                    f"{workload} seed {seed} trace {trace}: exit {code}, correct")
        records.append(json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text()))
    counts = [r["counts"] for r in records]
    ok &= check(all(c == counts[0] for c in counts), f"{workload}: counts identical across runs")
    ok &= check(all(r["counts_stable"] for r in records),
                f"{workload}: counts repeated by every operation of a case")
    traced = records[-1]["traced_call_counts"]
    ok &= check({case: c["solver_calls"] for case, c in traced.items()}
                == {case: c["solver_calls"] for case, c in counts[-1].items()},
                f"{workload}: traced solver calls match sol.stats")
    return ok


def check_bare_directory() -> bool:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run(next(iter(WORKLOADS)), 1, 0, cwd=bare)
    shutil.rmtree(bare)
    return check(code != 0 and not any(line.startswith("{") for line in lines),
                 f"bare directory: exit {code}, no result printed")


def main(argv: list[str]) -> int:
    ok = check_manifest()
    for workload in argv or list(WORKLOADS):
        ok &= check_workload(workload)
    ok &= check_bare_directory()
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
