"""Command-line surface: ingestion, preprocessing, calibration, scoring,
evaluation, and reporting.

Exit codes: 0 on success, 2 for validation errors (bad inputs, unreadable
or undecodable files, bad flags), 1 for unexpected internal errors.  When --seed is not given, the
METACAL_SEED environment variable is used as a fallback, then 0.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys

from . import io
from .core import (
    MetacalError,
    MetricSpec,
    PreferenceTarget,
    Weighting,
    pointwise_z,
    unstack_pairs,
)
from .gbt import GbtConfig, GbtLoss, calibrate_gbt
from .gp import GpConfig, LengthscalePolicy, SearchTooLarge, calibrate_gp, select_top_k
from .harness import (
    TIE_POLICIES,
    GroupedScores,
    build_report,
    grouped_pairwise_accuracy,
)
from .objectives import ObjectiveKind
from .preprocess import normalize_matrix
from .textmetrics import BUILTIN_METRICS, builtin_specs, score_corpus


# Each method's own flags: flag -> (method, argparse options).  A flag is
# absent from the namespace unless given, so the method's config supplies
# every default (see `_method_config`).
_METHOD_FLAGS: dict[str, tuple[str, dict]] = {
    "--init-points": ("gp", dict(type=int, help="probes before the first GP fit: the uniform and "
                                 "one-hot starts, topped up with random ones to this count")),
    "--n-iter": ("gp", dict(type=int)),
    "--kappa": ("gp", dict(type=float)),
    "--fit-lengthscale": ("gp", dict(
        action="store_const", const=LengthscalePolicy.MAXIMIZE_MARGINAL_LIKELIHOOD,
        dest="lengthscale_policy", help="refit the GP lengthscale by marginal likelihood")),
    "--weighting": ("gp", dict(choices=[w.value for w in Weighting])),
    "--loss": ("gbt", dict(choices=[l.value for l in GbtLoss],
                           help="gbt loss (default: squarederror, or pairwise for jsonl data)")),
    "--max-depth": ("gbt", dict(type=int)),
    "--learning-rate": ("gbt", dict(type=float)),
    "--reg-lambda": ("gbt", dict(type=float)),
    "--gamma": ("gbt", dict(type=float)),
    "--cv-folds": ("gbt", dict(type=int)),
    "--n-estimators-low": ("gbt", dict(type=int)),
    "--n-estimators-high": ("gbt", dict(type=int)),
    "--n-estimators-step": ("gbt", dict(type=int)),
    "--prune-iterations": ("gbt", dict(type=int)),
}


def _dest(flag: str, options: dict) -> str:
    return options.get("dest", flag[2:].replace("-", "_"))


# The configs' errors name their fields; the CLI's name the flags.  GbtConfig
# calls the size grid's ends `high` and `low` in its step rule.
_FLAG_OF = {_dest(flag, options): flag for flag, (_, options) in _METHOD_FLAGS.items()}
_FLAG_OF.update(high="--n-estimators-high", low="--n-estimators-low")


def _naming_flags(err: MetacalError) -> MetacalError:
    """`err` with the config field names in its message replaced by flags."""
    return MetacalError(re.sub(r"\w+", lambda m: _FLAG_OF.get(m[0], m[0]), str(err)))


def _default_seed(value: int | None) -> int:
    """--seed, else METACAL_SEED, else 0; a negative seed is refused."""
    name = "--seed"
    if value is None:
        name, env = "METACAL_SEED", os.environ.get("METACAL_SEED", "0")
        try:
            value = int(env)
        except ValueError:
            raise MetacalError(f"METACAL_SEED must be an integer, got {env!r}") from None
    if value < 0:
        raise MetacalError(f"{name} must be >= 0, got {value}")
    return value


def _cmd_basemetrics(args: argparse.Namespace) -> int:
    names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    builtin_specs(names)
    ids, pairs, target = io.load_corpus_csv(args.input)
    matrix = score_corpus(pairs, names, ids)
    io.save_scores_csv(matrix, args.output, target)
    print(f"scored {matrix.n_examples} examples with {len(names)} metrics -> {args.output}")
    return 0


def _require_target(target: PreferenceTarget | None, path: str) -> PreferenceTarget:
    if target is None:
        raise io.HeaderMismatch(f"{path} has no human column; targets are required")
    return target


def _method_config(args: argparse.Namespace, seed: int) -> GpConfig | GbtConfig:
    """The --method's config from the method flags given and `seed`; a flag
    of the other method is refused, and the config refuses a bad value (the
    error names the flag, where the config's own names the field)."""
    given = {}
    for flag, (method, options) in _METHOD_FLAGS.items():
        dest = _dest(flag, options)
        if dest in args:
            if method != args.method:
                raise MetacalError(f"{flag} is only valid with --method {method}")
            given[dest] = getattr(args, dest)
    given.pop("prune_iterations", None)
    config: type[GpConfig] | type[GbtConfig]
    if args.method == "gp":
        config = GpConfig
        if "weighting" in given:
            given["weighting"] = Weighting(given["weighting"])
    else:
        config = GbtConfig
        # A JSONL file always loads as a pairwise target, a CSV file as a pointwise one.
        default_loss = GbtLoss.PAIRWISE_RANK if args.format == "jsonl" else GbtLoss.SQUARED_ERROR
        given["loss"] = GbtLoss(given.get("loss", default_loss))
    try:
        return config(seed=seed, **given)
    except MetacalError as err:
        raise _naming_flags(err) from None


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config = _method_config(args, _default_seed(args.seed))
    prune_iterations = getattr(args, "prune_iterations", None)
    if args.top_k is not None and args.top_k < 1:
        raise MetacalError("--top-k must be >= 1")
    if prune_iterations is not None and prune_iterations < 1:
        raise MetacalError("--prune-iterations must be >= 1")
    if args.objective == ObjectiveKind.PAIRWISE_ACCURACY.value and args.format != "jsonl":
        raise MetacalError("--objective pairwise is only valid with --format jsonl")
    objective = ObjectiveKind(args.objective)
    specs = io.load_specs(args.specs)
    if args.top_k is not None and args.top_k > len(specs):
        raise MetacalError(f"--top-k must be in [1, {len(specs)}], got {args.top_k}")
    kept = args.top_k or len(specs)
    if prune_iterations is not None and prune_iterations > kept:
        raise MetacalError(f"--prune-iterations must be in [1, {kept}], got {prune_iterations}")
    matrix, target = io.load_scores(args.scores, args.format, specs)
    target = _require_target(target, args.scores)
    normalized = normalize_matrix(matrix, specs)
    if args.top_k is not None:
        keep = select_top_k(normalized, target, objective, args.top_k)
        normalized = normalized.take_columns(keep)
        specs = tuple(specs[i] for i in keep)

    if isinstance(config, GpConfig):
        try:
            model = calibrate_gp(normalized, target, objective, config, specs=specs)
        except SearchTooLarge as err:
            raise _naming_flags(err) from None
    else:
        model, _ = calibrate_gbt(
            normalized.values, target, objective, config, specs, prune_iterations=prune_iterations)
    io.save_model(model, args.output)
    print(f"calibrated {args.method} model over {len(model.metric_specs)} metrics -> {args.output}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    model = io.load_model(args.model)
    matrix, _ = io.load_scores(args.scores, args.format, model.metric_specs)
    scores = io.score_with_model(model, matrix)
    io.save_meta_scores(matrix.example_ids, scores, args.output)
    print(f"scored {matrix.n_examples} examples -> {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if (args.model is None) == (args.metric is None):
        raise MetacalError("pass exactly one of --model or --metric")
    if "tie_policy" in args and args.format == "jsonl":
        raise MetacalError("--tie-policy is only valid with --format csv")
    if args.model is not None:
        model = io.load_model(args.model)
        specs: tuple[MetricSpec, ...] = model.metric_specs
    else:
        # A raw column evaluation needs no range metadata; the spec is a
        # placeholder that makes `load_scores` read that one column (or
        # reject a file without it).
        specs = (MetricSpec(args.metric, 0.0, 1.0, True),)
        model = None
    matrix, target = io.load_scores(args.scores, args.format, specs)
    if model is not None:
        metric_scores = io.score_with_model(model, matrix)
    else:
        metric_scores = matrix.column(args.metric)

    if args.format == "jsonl":
        assert target is not None and target.pairwise is not None
        report = grouped_pairwise_accuracy(
            [pair.category for pair in target.pairwise], *unstack_pairs(metric_scores)
        )
    else:
        target = _require_target(target, args.scores)
        grouped = GroupedScores.from_examples(
            zip(matrix.example_ids, metric_scores, pointwise_z(matrix, target))
        )
        tie_policy = {"tie_policy": args.tie_policy} if "tie_policy" in args else {}
        report = build_report(grouped, **tie_policy)
    obj = io.report_to_obj(report)
    io.write_json(obj, args.output)
    if report.avg_corr is not None:
        print(f"avg_corr (unweighted): {io.format_float(report.avg_corr)} -> {args.output}")
    else:
        print(f"overall accuracy: {io.format_float(report.overall_accuracy)} -> {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if not math.isfinite(args.sparsity_epsilon):
        raise MetacalError(f"--sparsity-epsilon must be finite, got {args.sparsity_epsilon}")
    model = io.load_model(args.model)
    text, obj = io.report_model(model, epsilon=args.sparsity_epsilon)
    print(text)
    if args.output:
        io.write_json(obj, args.output)
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    seed = _default_seed(args.seed)
    outputs = [args.train_output, args.test_output]
    if os.path.realpath(outputs[0]) == os.path.realpath(outputs[1]):
        raise MetacalError("--train-output and --test-output must be different files")
    specs = io.load_specs(args.specs)
    matrix, target = io.load_scores(args.scores, args.format, specs)
    sides = io.split_matrix(matrix, target, fraction=args.train_fraction, seed=seed)
    with io.staged(outputs) as paths:
        for (side_m, side_t), path in zip(sides, paths):
            if args.format == "jsonl":
                io.save_scores_jsonl(side_t, path, side_m)
            else:
                io.save_scores_csv(side_m, path, side_t)
    print(
        f"split {matrix.n_examples if args.format == 'csv' else len(target.pairwise)} "
        f"-> train {args.train_output}, test {args.test_output}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the metacal command line.  `main` parses with one
    built at import (`_PARSER`); a parse sets `command`, which names the
    `_cmd_<command>` handler, and binds no handler itself."""
    parser = argparse.ArgumentParser(
        prog="metacal",
        description="Calibrate a combination of evaluation metrics against human preferences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basemetrics", help="score a text corpus with built-in metrics")
    p.add_argument("--input", required=True, help="corpus CSV: ids, hypothesis, reference[, human]")
    p.add_argument("--output", required=True, help="score CSV to write")
    p.add_argument(
        "--metrics",
        default=",".join(BUILTIN_METRICS),
        help="comma-separated subset of: " + ", ".join(BUILTIN_METRICS),
    )

    p = sub.add_parser("calibrate", help="learn a calibrated model from scores + targets")
    p.add_argument("--scores", required=True)
    p.add_argument("--specs", required=True, help="metric spec JSON file")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--method", choices=("gp", "gbt"), default="gp")
    p.add_argument("--objective", choices=[o.value for o in ObjectiveKind], default="kendall")
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)
    for flag, (_, options) in _METHOD_FLAGS.items():
        p.add_argument(flag, default=argparse.SUPPRESS, **options)

    p = sub.add_parser("score", help="apply a calibrated model to a score file")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", required=True)

    p = sub.add_parser("evaluate", help="meta-evaluation statistics against human scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--model", default=None)
    p.add_argument("--metric", default=None, help="evaluate a raw score column instead of a model")
    p.add_argument("--tie-policy", choices=TIE_POLICIES, default=argparse.SUPPRESS,
                   help="csv only (default: strict)")
    p.add_argument("--output", required=True)

    p = sub.add_parser("report", help="weights / feature-importance report for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--sparsity-epsilon", type=float, default=io.SPARSITY_EPSILON,
                   help="linear weights below this magnitude are reported as dropped")

    p = sub.add_parser("split", help="seeded train/test split of a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--specs", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--train-fraction", type=float, default=io.TRAIN_FRACTION)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--train-output", required=True)
    p.add_argument("--test-output", required=True)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Cyclic garbage collection is off while it runs and
    restored after: a command's objects are acyclic rows, ids and pairs that
    reference counting frees, and a full collection, which traverses every
    one of them still alive, costs a command whatever time it lands in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    """Parse `argv` with the shared parser and run its command's handler,
    looked up by name at call time so that a patched `_cmd_*` is the one
    that runs.  Each parse returns a new namespace, so no flag of one call
    carries over to the next.  An output path that exists and is not a
    regular file, after following links, is refused before the handler
    runs."""
    args = _PARSER.parse_args(argv)
    try:
        for flag in ("output", "train_output", "test_output"):
            path = getattr(args, flag, None)
            if path is not None and not os.path.isfile(path) and os.path.exists(path):
                raise MetacalError(f"--{flag.replace('_', '-')} {path} exists and is not a regular file")
        return globals()[f"_cmd_{args.command}"](args)
    except (MetacalError, OSError, UnicodeDecodeError) as exc:
        # Unreadable or unwritable paths and undecodable files are bad
        # inputs, not internal errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
