"""Time the GBT tree builder on the benchmark workloads' own builds.

Runs one pass of each `perfbench` workload (desk, scale, prefs) at seed 1
through `metacal.cli.main`, with this checkout's metacal, and records the
arguments of every `gbt._grow` call: each boosting round of each CV run
and final model.  It then counts the nodes those builds search, by row
count, and the blocks they are searched in, and times the builds again,
in process with garbage collection off, once for each value of the block
limit `gbt._BLOCK_CELLS` in `--cells` and once for the `_grow` of each
`--against` checkout, in turn, run after run.

Writes per workload the node and block counts and, per variant, the min,
median and samples of the seconds all of its builds take to
`bench/GROW_<label>.json` of this checkout:

    python tools/grow_bench.py --label change --runs 9
    python tools/grow_bench.py --label change --runs 9 --against ../other-clone

The first variant is the checkout as it is; an `--against` one is named
by its commit.  An `--against` checkout must
have a `gbt._grow` of the same signature; its module is loaded from its
`src/metacal/gbt.py` on top of this checkout's package.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import checks  # noqa: E402
import plans  # noqa: E402
import workloads  # noqa: E402
from worker import Pass  # noqa: E402

import metacal.cli  # noqa: E402
import metacal.gbt as gbt  # noqa: E402
import metacal.io  # noqa: E402
import metacal.objectives  # noqa: E402

SEED = 1
NODE_EDGES = (2, 17, 65, 129, 513, 2049)  # searched-node row counts: 2-16, ..., 2049 and more
BLOCK_EDGES = (1, 2, 9, 65)  # nodes per block: 1, 2-8, 9-64, 65 and more


def capture(workload: str, work: str) -> list[tuple]:
    """The arguments of every `_grow` call of one pass of `workload`."""
    calls = []
    grow = gbt._grow

    def recording(*args):
        calls.append(args)
        return grow(*args)

    inputs = workloads.generate(workload, ROOT, SEED, os.path.join(work, "inputs"), workloads.FULL)
    checker = checks.Checker(metacal.io, metacal.objectives.kendall_tau, SEED)
    p = Pass(metacal.cli.main, os.path.join(work, "pass"), checker, None)
    gbt._grow = recording
    try:
        plans.PLANS[workload](p, inputs, SEED, workloads.FULL)
    finally:
        gbt._grow = grow
    failures = [f for call in p.calls for f in call.failures]
    if failures:
        raise SystemExit(f"{workload}: {failures[0]}")
    return calls


def census(calls: list[tuple]) -> dict:
    """Searched nodes by row count and blocks by node count, at the
    checkout's own block limit."""
    nodes, blocks = [0] * len(NODE_EDGES), [0] * len(BLOCK_EDGES)
    search = gbt._search

    def counting(x, ranks, gh, rows, sizes, *args):
        for size in sizes.tolist():
            nodes[sum(size >= e for e in NODE_EDGES) - 1] += 1
        blocks[sum(sizes.size >= e for e in BLOCK_EDGES) - 1] += 1
        return search(x, ranks, gh, rows, sizes, *args)

    gbt._search = counting
    try:
        for args in calls:
            gbt._grow(*args)
    finally:
        gbt._search = search

    def labels(edges):
        return [f"{a}-{b - 1}" if b - 1 > a else str(a) for a, b in zip(edges, edges[1:])] + [f"{edges[-1]}+"]

    return {
        "builds": len(calls),
        "unit_hess_builds": sum(bool((args[3] == 1.0).all()) for args in calls),
        "searched_nodes": dict(zip(labels(NODE_EDGES), nodes)),
        "blocks_by_nodes": dict(zip(labels(BLOCK_EDGES), blocks)),
    }


def load_grow(checkout: str):
    """`_grow` of `checkout`'s gbt.py, loaded on top of this checkout's package."""
    name = f"metacal._grow_bench_{abs(hash(checkout))}"
    spec = importlib.util.spec_from_file_location(name, os.path.join(checkout, "src", "metacal", "gbt.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module._grow


def git_sha(checkout: str) -> str:
    return subprocess.run(["git", "-C", checkout, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True).stdout.strip()


def timed(calls: list[tuple], grow, cells: int | None) -> float:
    default = gbt._BLOCK_CELLS
    gbt._BLOCK_CELLS = default if cells is None else cells
    try:
        start = time.perf_counter()
        for args in calls:
            grow(*args)
        return time.perf_counter() - start
    finally:
        gbt._BLOCK_CELLS = default


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--cells", type=int, nargs="*", default=[1 << 12, 1 << 13, 1 << 15],
                        help="block limits to time besides the checkout's own")
    parser.add_argument("--against", nargs="*", default=[], metavar="CHECKOUT")
    args = parser.parse_args()
    if not args.label or os.sep in args.label:
        parser.error("--label must be a non-empty file-name part")
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    variants = {f"_BLOCK_CELLS={gbt._BLOCK_CELLS}": (gbt._grow, None)}
    variants.update({f"_BLOCK_CELLS={c}": (gbt._grow, c) for c in args.cells if c != gbt._BLOCK_CELLS})
    variants.update({f"_grow of {git_sha(c)}": (load_grow(c), None) for c in args.against})
    result = {"label": args.label, "git_sha": git_sha(ROOT), "runs": args.runs,
              "python": platform.python_version(), "nproc": os.cpu_count(), "unit": "s", "seed": SEED,
              "workloads": {}}
    for workload in plans.PLANS:
        work = tempfile.mkdtemp(prefix=f"grow-{workload}-")
        try:
            calls = capture(workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        entry = census(calls)
        samples: dict[str, list[float]] = {name: [] for name in variants}
        gc.collect()
        gc.disable()
        try:
            for run in range(args.runs):
                names = list(variants)
                names = names[run % len(names):] + names[:run % len(names)]
                for name in names:
                    samples[name].append(timed(calls, *variants[name]))
        finally:
            gc.enable()
        entry["seconds"] = {name: {"min": min(s), "median": statistics.median(s), "samples": s}
                            for name, s in samples.items()}
        result["workloads"][workload] = entry
        medians = {name: round(v["median"], 4) for name, v in entry["seconds"].items()}
        print(workload, medians, file=sys.stderr)
    os.makedirs(os.path.join(ROOT, "bench"), exist_ok=True)
    path = os.path.join(ROOT, "bench", f"GROW_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
