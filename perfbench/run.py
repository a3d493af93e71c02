"""metacal benchmark: per-stage time of the CLI on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0

Each run starts fresh worker processes (``worker.py``) with the BLAS thread
count pinned to 1: two that only set up, then the one that measures.  The
set-up time is the median over the three of process start until
``metacal.cli`` is imported and the workload's inputs are on disk.  The
measuring worker repeats passes over the workload's stages, each stage one
in-process ``metacal.cli.main(argv)`` call, and checks every output.  Times
are scaled to a nominal machine speed (``speed.py``); the unscaled wall
times are in the details line.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones plus the tracing
overhead.  The line before it records the environment and run details.
Exits 2 without a result when the checkout holds no ``src/metacal``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args: argparse.Namespace, env: dict[str, str], extra: list[str], deadline: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = dict(env, PERFBENCH_SPAWNED=repr(time.perf_counter()))
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "scale", "prefs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "metacal", "cli.py")):
        print(f"no metacal sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    env = dict(os.environ, **THREAD_ENV)
    try:
        probes = [_worker(args, env, ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        result = _worker(args, env, [], deadline)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failures = list(result["failures"])
    if any(p["inputs"] != result["inputs"] for p in probes):
        failures.append("input generation is not deterministic for this seed")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    setup_samples = [p["setup_s"] for p in probes] + [result["setup_s"]]
    if not args.trace:
        setup = statistics.median(setup_samples) * result["speed_factor"]
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "passes": result["passes"],
        "traced_passes": result["traced_passes"],
        "pass_seconds": result["pass_seconds"],
        "reference_s": result["reference_s"],
        "speed_factor": result["speed_factor"],
        "wall_metrics": result["wall_metrics"],
        "setup_samples": setup_samples,
        "error_rate": result["failed"] / result["attempted"],
        "failures": failures,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
