"""Run the benchmark once and save its output as a committed bench run.

Runs ``perfbench/run.py`` of a checkout (this one by default) and writes
its last two stdout lines, the details line and the result line, to
``bench/BENCH_<label>.json`` of this checkout:

    python tools/save_bench.py --label before-desk --workload desk --seed 1
    python tools/save_bench.py --label after-desk --workload desk --seed 1 \\
        --checkout ../other-clone

Compare two commits from clones under the same parent directory: the
set-up time moves with where the checkout lies.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True, choices=("desk", "scale", "prefs"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", default=ROOT, help="checkout whose perfbench/run.py runs")
    args = parser.parse_args()
    if not args.label or os.sep in args.label:
        parser.error("--label must be a non-empty file-name part")

    command = [sys.executable, os.path.join(args.checkout, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=args.checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        print(f"benchmark exited {proc.returncode}; nothing saved", file=sys.stderr)
        return 1
    record = {**json.loads(lines[-2]), "result": json.loads(lines[-1])}

    out_dir = os.path.join(ROOT, "bench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
