"""Print the sha256 of every artifact of one checked pass of each benchmark plan.

For each workload in `perfbench/plans.py` (desk, prefs, scale), generates
its full-size inputs for the seed with `perfbench/workloads.py`, then runs
one pass of its CLI stages through the benchmark's own `worker.Pass`, in a
temporary directory and with the metacal of this checkout (`src/`).  Every
output is checked, as in the benchmark's first pass.

Prints `sha256  workload/name` for every artifact, then one `FAILED  ...`
line per failed call or check, and exits 1 if there was one.  Two checkouts
that print the same lines produce the same benchmark artifacts.  One seed
takes several seconds (7 s on 2 vCPUs).

Run from anywhere:  python tools/plan_digests.py --seed 1
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import checks  # noqa: E402
import metacal.cli  # noqa: E402
import metacal.io  # noqa: E402
import metacal.objectives  # noqa: E402
import plans  # noqa: E402
import workloads  # noqa: E402
from worker import Pass  # noqa: E402


def plan_pass(workload: str, seed: int, work: str) -> tuple[dict[str, str], list[str]]:
    """Artifact digests (by file name) and failures of one checked pass."""
    inputs = workloads.generate(workload, ROOT, seed, os.path.join(work, "inputs"), workloads.FULL)
    checker = checks.Checker(metacal.io, metacal.objectives.kendall_tau, seed)
    p = Pass(metacal.cli.main, os.path.join(work, "pass"), checker, None)
    plans.PLANS[workload](p, inputs, seed, workloads.FULL)
    digests = p.finish(check=True)
    return digests, [failure for call in p.calls for failure in call.failures]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failures = []
    with tempfile.TemporaryDirectory() as work:
        for workload in sorted(plans.PLANS):
            digests, failed = plan_pass(workload, args.seed, os.path.join(work, workload))
            for name, digest in sorted(digests.items()):
                print(f"{digest}  {workload}/{name}")
            failures += [f"{workload}: {failure}" for failure in failed]
    for failure in failures:
        print(f"FAILED  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
