"""The CLI stage calls of one pass over each workload.

Each function issues its stages through ``Pass.run`` (timed, one
in-process ``metacal.cli.main(argv)`` call each) and registers the output
check for every call.  Stage names are the prefixes of the end-to-end
metrics (``calibrate_gp`` -> ``calibrate_gp_s``); ``report`` counts toward
``pipeline_s`` only.

Every workload runs every stage and reaches both the pointwise and the
pairwise paths of the objectives and the harness, so every metric is
measured on every workload; which layers dominate differs (see
``workloads``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from workloads import (CATEGORIES, Inputs, Size, concat_csv, write_pairs_from_ratings,
                       write_prefs_jsonl)

if TYPE_CHECKING:
    from worker import Pass

STAGES = ("basemetrics", "split", "calibrate_gp", "calibrate_gp_spearman", "calibrate_gbt",
          "score", "evaluate")


def _basemetrics(p: "Pass", corpus: str, scores: str) -> None:
    p.run("basemetrics", ["basemetrics", "--input", corpus, "--output", scores],
          [scores], lambda: p.checker.basemetrics(scores, corpus))


def _split(p: "Pass", scores: str, specs: str, fmt: str, fraction: float, seed: int,
           train: str, test: str) -> None:
    p.run("split", ["split", "--scores", scores, "--specs", specs, "--format", fmt,
                    "--train-fraction", repr(fraction), "--seed", str(seed),
                    "--train-output", train, "--test-output", test],
          [train, test], lambda: p.checker.split(scores, train, test, fraction, fmt))


def _calibrate(p: "Pass", stage: str, scores: str, specs: str, fmt: str, output: str,
               seed: int, flags: list[str]) -> None:
    argv = ["calibrate", "--scores", scores, "--specs", specs, "--format", fmt,
            "--seed", str(seed), "--output", output, *flags]
    p.run(stage, argv, [output], lambda: p.checker.model(output))


def _apply(p: "Pass", model: str, scores: str, fmt: str, tag: str) -> None:
    """score, evaluate and report one model on held-out data."""
    meta, report = p.path(f"meta_{tag}.csv"), p.path(f"report_{tag}.json")
    weights = p.path(f"weights_{tag}.json")
    p.run("score", ["score", "--model", model, "--scores", scores, "--format", fmt, "--output", meta],
          [meta], lambda: p.checker.score(model, scores, fmt, meta))
    p.run("evaluate", ["evaluate", "--model", model, "--scores", scores, "--format", fmt,
                       "--output", report],
          [report], lambda: p.checker.evaluate(report, scores, fmt, meta))
    p.run("report", ["report", "--model", model, "--output", weights], [weights], lambda: [])


def desk(p: "Pass", inputs: Inputs, seed: int, size: Size) -> None:
    """Repeated random sub-sampling of the bundled corpus.

    Every split seed gets a GP (Kendall) model, scored and evaluated on its
    test side: the GP stage takes ~0.35 s, so it repeats.  The first splits
    also get a GP (Spearman) and a GBT model with two prune rounds over a
    short 10..20-tree grid; the first split's GP model is also scored on
    relative-ranking pairs of its test side.
    """
    specs = inputs.files["specs"]
    scores = p.path("scores.csv")
    _basemetrics(p, inputs.files["corpus"], scores)
    for j in range(size.desk_splits):
        train, test = p.path(f"train{j}.csv"), p.path(f"test{j}.csv")
        _split(p, scores, specs, "csv", 0.30, seed + j, train, test)
        gp = p.path(f"gp{j}.json")
        _calibrate(p, "calibrate_gp", train, specs, "csv", gp, seed + j, ["--method", "gp"])
        _apply(p, gp, test, "csv", f"gp{j}")
        if j >= size.desk_model_splits:
            continue
        gps, gbt = p.path(f"gps{j}.json"), p.path(f"gbt{j}.json")
        _calibrate(p, "calibrate_gp_spearman", train, specs, "csv", gps, seed + j,
                   ["--method", "gp", "--objective", "spearman"])
        _calibrate(p, "calibrate_gbt", train, specs, "csv", gbt, seed + j,
                   ["--method", "gbt", "--n-estimators-low", "10", "--n-estimators-high", "20",
                    "--n-estimators-step", "10", "--prune-iterations", "2"])
        _apply(p, gps, test, "csv", f"gps{j}")
        _apply(p, gbt, test, "csv", f"gbt{j}")
    pairs = p.path("pairs.jsonl")
    write_pairs_from_ratings(p.path("test0.csv"), pairs, threshold=0.1, stride=1)
    _apply(p, p.path("gp0.json"), pairs, "jsonl", "gp0_pairs")


def scale(p: "Pass", inputs: Inputs, seed: int, size: Size) -> None:
    """Text metrics on fresh segments; the 2 x 10^4-row table through the rest.

    The Spearman GP runs 20 BO steps instead of 100 (each step ranks the
    6,000 train rows in a Python loop).  GBT runs a 5..10-tree grid at
    depth 3 over 2 folds: its cost here is sorting large nodes, not the
    number of trees.
    """
    _basemetrics(p, inputs.files["corpus"], p.path("text_scores.csv"))
    specs = inputs.files["table_specs"]
    train, test = p.path("train.csv"), p.path("test.csv")
    _split(p, inputs.files["table"], specs, "csv", 0.30, seed, train, test)
    gp, gps, gbt = p.path("gp.json"), p.path("gps.json"), p.path("gbt.json")
    _calibrate(p, "calibrate_gp", train, specs, "csv", gp, seed, ["--method", "gp"])
    _calibrate(p, "calibrate_gp_spearman", train, specs, "csv", gps, seed,
               ["--method", "gp", "--objective", "spearman", "--n-iter", "20"])
    _calibrate(p, "calibrate_gbt", train, specs, "csv", gbt, seed,
               ["--method", "gbt", "--n-estimators-low", "5", "--n-estimators-high", "10",
                "--n-estimators-step", "5", "--max-depth", "3", "--cv-folds", "2"])
    _apply(p, gp, test, "csv", "gp")
    _apply(p, gbt, test, "csv", "gbt")
    pairs = p.path("pairs.jsonl")
    write_pairs_from_ratings(test, pairs, threshold=1.0, stride=size.scale_pair_stride)
    _apply(p, gp, pairs, "jsonl", "gp_pairs")


def prefs(p: "Pass", inputs: Inputs, seed: int, size: Size) -> None:
    """Score rated candidate texts (one basemetrics call per category),
    assemble preference pairs, calibrate.

    The pairs take the pairwise paths (GP at pairwise accuracy, the GBT
    rank loss with group folds, grouped accuracy).  The per-candidate
    ratings take the pointwise ones: a Kendall GP, counted in
    ``calibrate_gp``, and the ``calibrate_gp_spearman`` stage, since on
    pairs the objective flag has no effect.
    """
    specs = inputs.files["specs"]
    scored = [p.path(f"ratings_{c}.csv") for c in CATEGORIES]
    for category, output in zip(CATEGORIES, scored):
        _basemetrics(p, inputs.files[f"corpus_{category}"], output)
    ratings = p.path("ratings.csv")
    concat_csv(scored, ratings)
    pairs = p.path("pairs.jsonl")
    write_prefs_jsonl(ratings, inputs.plan, pairs)
    train, test = p.path("train.jsonl"), p.path("test.jsonl")
    _split(p, pairs, specs, "jsonl", 0.30, seed, train, test)
    r_train, r_test = p.path("ratings_train.csv"), p.path("ratings_test.csv")
    _split(p, ratings, specs, "csv", 0.30, seed, r_train, r_test)
    gp, gbt = p.path("gp.json"), p.path("gbt.json")
    r_gp, r_gps = p.path("ratings_gp.json"), p.path("ratings_gps.json")
    _calibrate(p, "calibrate_gp", train, specs, "jsonl", gp, seed, ["--method", "gp"])
    _calibrate(p, "calibrate_gp", r_train, specs, "csv", r_gp, seed, ["--method", "gp"])
    _calibrate(p, "calibrate_gp_spearman", r_train, specs, "csv", r_gps, seed,
               ["--method", "gp", "--objective", "spearman"])
    _calibrate(p, "calibrate_gbt", train, specs, "jsonl", gbt, seed,
               ["--method", "gbt", "--n-estimators-low", "10", "--n-estimators-high", "30",
                "--n-estimators-step", "10", "--max-depth", "4"])
    _apply(p, gp, test, "jsonl", "gp")
    _apply(p, gbt, test, "jsonl", "gbt")
    _apply(p, r_gps, r_test, "csv", "ratings_gps")


PLANS = {"desk": desk, "scale": scale, "prefs": prefs}
