"""Print the sha256 of every artifact of a seeded README quick-start run.

Runs, in a temporary directory and through `metacal.cli.main`, with the
metacal of this checkout (`src/`):

- the CSV path: basemetrics on the bundled desk corpus, split, then a GP
  model (Kendall), a GP model over the 3 metrics that align best on their
  own (`--top-k 3`) and a default-flags GBT model on the train side, each
  scored, evaluated and reported on the test side;
- the pairwise JSONL path: preference pairs of same-segment systems whose
  human scores differ (the higher one chosen), split by pair, then a GP
  model and a GBT model pruned over 2 rounds on a short size grid, trained
  on the train pairs, scored and evaluated on the test pairs.

Two checkouts that print the same lines produce the same artifacts.  The
default-flags GBT calibration dominates the run time (several seconds).

Run from anywhere:  python tools/artifact_digests.py --seed 0
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import itertools
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from metacal.cli import main as metacal  # noqa: E402
from metacal.io import save_specs  # noqa: E402
from metacal.textmetrics import BUILTIN_METRICS, builtin_specs  # noqa: E402

CORPUS = os.path.join(ROOT, "src", "metacal", "data", "desk_corpus.csv")


def run(*argv: str) -> None:
    if metacal(list(argv)) != 0:
        raise SystemExit(f"metacal {' '.join(argv)} failed")


def write_pairs(scores_csv: str, path: str) -> None:
    """One JSONL record per pair of same-segment systems with different
    human scores; the higher-rated system is the chosen member."""
    with open(scores_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    segments: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        segments.setdefault((row["dataset"], row["segment"]), []).append(row)
    with open(path, "w", encoding="utf-8") as out:
        for (dataset, segment), members in segments.items():
            for a, b in itertools.combinations(members, 2):
                if float(a["human"]) == float(b["human"]):
                    continue
                chosen, rejected = (a, b) if float(a["human"]) > float(b["human"]) else (b, a)
                record = {
                    "group": segment,
                    "category": dataset,
                    "chosen": {m: float(chosen[m]) for m in BUILTIN_METRICS},
                    "rejected": {m: float(rejected[m]) for m in BUILTIN_METRICS},
                }
                out.write(json.dumps(record) + "\n")


def quick_start(work: str, seed: str) -> None:
    def p(name: str) -> str:
        return os.path.join(work, name)

    run("basemetrics", "--input", CORPUS, "--output", p("scores.csv"))
    save_specs(builtin_specs(list(BUILTIN_METRICS)), p("specs.json"))
    run("split", "--scores", p("scores.csv"), "--specs", p("specs.json"), "--seed", seed,
        "--train-output", p("train.csv"), "--test-output", p("test.csv"))
    write_pairs(p("scores.csv"), p("pairs.jsonl"))
    run("split", "--scores", p("pairs.jsonl"), "--specs", p("specs.json"), "--format", "jsonl",
        "--seed", seed, "--train-output", p("pairs_train.jsonl"),
        "--test-output", p("pairs_test.jsonl"))
    models = (
        ("gp", "train.csv", "csv", ["--method", "gp", "--objective", "kendall"]),
        ("gp_top3", "train.csv", "csv", ["--method", "gp", "--objective", "kendall",
                                          "--top-k", "3"]),
        ("gbt", "train.csv", "csv", ["--method", "gbt"]),
        ("gp_pairs", "pairs_train.jsonl", "jsonl", ["--method", "gp"]),
        ("gbt_pairs", "pairs_train.jsonl", "jsonl", [
            "--method", "gbt", "--n-estimators-low", "10", "--n-estimators-high", "30",
            "--n-estimators-step", "10", "--prune-iterations", "2"]),
    )
    for tag, train, fmt, flags in models:
        model = p(f"{tag}.json")
        test = train.replace("train", "test")
        run("calibrate", "--scores", p(train), "--specs", p("specs.json"), "--format", fmt,
            "--seed", seed, "--output", model, *flags)
        run("score", "--model", model, "--scores", p(test), "--format", fmt,
            "--output", p(f"meta_{tag}.csv"))
        run("evaluate", "--model", model, "--scores", p(test), "--format", fmt,
            "--output", p(f"report_{tag}.json"))
        run("report", "--model", model, "--output", p(f"weights_{tag}.json"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        with contextlib.redirect_stdout(sys.stderr):  # the commands' own messages
            quick_start(work, str(args.seed))
        for name in sorted(os.listdir(work)):
            with open(os.path.join(work, name), "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
