"""Set-up probe: a fresh process that imports flexbid, loads one workload's
configs and prints ``ready``.  run.py times it from spawn to that line.

Usage: python3 benchmarks/probe.py <workload>
"""

import sys

from workloads import SRC, WORKLOADS

sys.path.insert(0, str(SRC))

from flexbid import cli  # noqa: E402

for case in WORKLOADS[sys.argv[1]].cases:
    cli.load_problem(str(case.config))
print("ready", flush=True)
