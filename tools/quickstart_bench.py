"""Time the README quick start, one `python -m metacal.cli` process per stage.

Runs the stages of `tools/artifact_digests.py` at seed 0 (`commands`, in
order, with `prepare` after the first) in a temporary directory, as a user
runs them: every stage is a new process, so its time includes starting
Python and importing metacal.  One more stage, `calibrate_gbt_prune3`, is
the default-flags GBT calibration with `--prune-iterations 3`.  Each run
uses a new directory; BLAS runs one thread, as in `perfbench`.

Writes the per-stage min, median, interquartile range and samples (wall
seconds) to `bench/QUICKSTART_<label>.json` of this checkout:

    python tools/quickstart_bench.py --label change --runs 5
    python tools/quickstart_bench.py --label change --runs 5 \\
        --alternate parent ../parent-clone

`--alternate LABEL CHECKOUT` interleaves the runs with those of a second
checkout, run for run, and writes its file too.  Put the clones under one
parent directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import artifact_digests  # noqa: E402


def stages(work: str) -> list[tuple[str, list[str]]]:
    """The quick start's stages at seed 0, plus the default-flags GBT
    calibration pruned over 3 rounds."""
    calls = artifact_digests.commands(work, "0")
    argv = dict(calls)["calibrate_gbt"]
    pruned = [os.path.join(work, "gbt_prune3.json") if a == argv[argv.index("--output") + 1] else a
              for a in argv]
    return [*calls, ("calibrate_gbt_prune3", [*pruned, "--prune-iterations", "3"])]


def run_once(checkout: str) -> dict[str, float]:
    """Wall seconds of each stage of one quick start with `checkout`'s metacal."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    seconds = {}
    with tempfile.TemporaryDirectory() as work:
        for i, (stage, argv) in enumerate(stages(work)):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "metacal.cli", *argv], env=env,
                                  capture_output=True, text=True)
            seconds[stage] = time.perf_counter() - start
            if proc.returncode != 0:
                raise SystemExit(f"{stage} exited {proc.returncode}: {proc.stderr.strip()}")
            if i == 0:
                artifact_digests.prepare(work)
    return seconds


def summary(label: str, checkout: str, runs: list[dict[str, float]]) -> dict:
    def stats(samples: list[float]) -> dict:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        return {"min": min(samples), "median": median, "iqr": q3 - q1, "samples": samples}

    sha = subprocess.run(["git", "-C", checkout, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    return {
        "label": label,
        "git_sha": sha,
        "runs": len(runs),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "unit": "s",
        "stages": {stage: stats([run[stage] for run in runs]) for stage in runs[0]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--alternate", nargs=2, metavar=("LABEL", "CHECKOUT"),
                        help="a second checkout to run in turn with the first")
    args = parser.parse_args()
    sides = [(args.label, ROOT)] + ([tuple(args.alternate)] if args.alternate else [])
    for label, _ in sides:
        if not label or os.sep in label:
            parser.error("a label must be a non-empty file-name part")
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs: dict[str, list[dict[str, float]]] = {label: [] for label, _ in sides}
    for i in range(args.runs):
        for label, checkout in sides[i % len(sides):] + sides[:i % len(sides)]:
            runs[label].append(run_once(checkout))
            print(f"run {i + 1} {label}: {sum(runs[label][-1].values()):.2f} s", file=sys.stderr)
    os.makedirs(os.path.join(ROOT, "bench"), exist_ok=True)
    for label, checkout in sides:
        path = os.path.join(ROOT, "bench", f"QUICKSTART_{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary(label, checkout, runs[label]), fh, indent=1)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
