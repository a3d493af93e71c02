"""Time the README quick start, one `python -m metacal.cli` process per stage.

Runs the stages of `tools/artifact_digests.py` at seed 0 (`commands`, in
order, with `prepare` after the first) in a temporary directory, as a user
runs them: every stage is a new process, so its time includes starting
Python and importing metacal.  One more stage, `calibrate_gbt_prune3`, is
the default-flags GBT calibration with `--prune-iterations 3`.  Each run
uses a new directory; BLAS runs one thread, as in `perfbench`.

Compares a parent and a change checkout, clones side by side under one
parent directory, in alternating pairs through `tools/pairs_bench.py`,
with the same checkout flags, refusals (no `__pycache__` under `src/`; no
process writes bytecode, so every stage also compiles the metacal modules
it imports, on both sides alike) and A/A pairs with `--control`:

    python tools/quickstart_bench.py --parent ../parent --change ../change \\
        --control ../parent2 --pairs 10

The record goes to `bench/QUICKSTART_<label>.json` of this checkout in the
pairs layout, with one workload, `quickstart`, whose columns and summary
hold each stage's wall seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.dont_write_bytecode = True  # importing metacal here must leave no bytecode in src/

import artifact_digests  # noqa: E402
import pairs_bench  # noqa: E402


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
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    seconds = {}
    with tempfile.TemporaryDirectory() as work:
        for i, (stage, argv) in enumerate(stages(work)):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "metacal.cli", *argv], env=env,
                                  capture_output=True, text=True)
            seconds[stage] = round(time.perf_counter() - start, 6)
            if proc.returncode != 0:
                raise pairs_bench.RunFailed(f"{checkout}: {stage} exited {proc.returncode}: {proc.stderr.strip()}")
            if i == 0:
                artifact_digests.prepare(work)
    return seconds


def main() -> int:
    args = pairs_bench.parse_checkouts(pairs_bench.checkout_parser(__doc__.split("\n")[0]))
    measured = "Wall seconds of each quick-start stage (one `python -m metacal.cli` process a stage)"
    return pairs_bench.record_pairs("QUICKSTART", args, measured, {"quickstart": run_once})


if __name__ == "__main__":
    sys.exit(main())
