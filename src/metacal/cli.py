"""Command-line surface: ingestion, preprocessing, calibration, scoring,
evaluation, and reporting.

Exit codes: 0 on success, 2 for validation errors (bad inputs, unreadable
or undecodable files, bad flags), 1 for unexpected internal errors.  When --seed is not given, the
METACAL_SEED environment variable is used as a fallback, then 0.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import io
from .core import (
    MetacalError,
    MetricSpec,
    PreferenceTarget,
    TargetKind,
    Weighting,
    pointwise_z,
    unstack_pairs,
)
from .gbt import GbtConfig, GbtLoss, calibrate_gbt
from .gp import GpConfig, LengthscalePolicy, calibrate_gp, select_top_k
from .harness import (
    TIE_POLICIES,
    GroupedScores,
    build_report,
    grouped_pairwise_accuracy,
)
from .objectives import ObjectiveKind
from .preprocess import normalize_matrix
from .textmetrics import BUILTIN_METRICS, builtin_specs, score_corpus


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


def _cmd_calibrate(args: argparse.Namespace) -> int:
    seed = _default_seed(args.seed)
    if args.prune_iterations is not None and args.method != "gbt":
        raise MetacalError("--prune-iterations is only valid with --method gbt")
    if args.weighting != Weighting.LINEAR.value and args.method != "gp":
        raise MetacalError("--weighting is only valid with --method gp")
    if args.top_k is not None and args.top_k < 1:
        raise MetacalError("--top-k must be >= 1")
    if args.prune_iterations is not None and args.prune_iterations < 1:
        raise MetacalError("--prune-iterations must be >= 1")
    if args.objective == ObjectiveKind.PAIRWISE_ACCURACY.value and args.format != "jsonl":
        raise MetacalError("--objective pairwise is only valid with --format jsonl")
    objective = ObjectiveKind(args.objective)
    specs = io.load_specs(args.specs)
    matrix, target = io.load_scores(args.scores, args.format, specs)
    target = _require_target(target, args.scores)
    normalized = normalize_matrix(matrix, specs)
    if args.top_k is not None:
        keep = select_top_k(normalized, target, objective, args.top_k)
        normalized = normalized.take_columns(keep)
        specs = tuple(specs[i] for i in keep)

    if args.method == "gp":
        config = GpConfig(
            init_points=args.init_points,
            n_iter=args.n_iter,
            kappa=args.kappa,
            lengthscale_policy=(
                LengthscalePolicy.MAXIMIZE_MARGINAL_LIKELIHOOD
                if args.fit_lengthscale
                else LengthscalePolicy.FIXED_ONE
            ),
            seed=seed,
            weighting=Weighting(args.weighting),
        )
        model = calibrate_gp(normalized, target, objective, config, specs=specs)
    else:
        loss = GbtLoss(args.loss) if args.loss else (
            GbtLoss.PAIRWISE_RANK
            if target.kind is TargetKind.PAIRWISE
            else GbtLoss.SQUARED_ERROR
        )
        config = GbtConfig(
            n_estimators_low=args.n_estimators_low,
            n_estimators_high=args.n_estimators_high,
            n_estimators_step=args.n_estimators_step,
            loss=loss,
            max_depth=args.max_depth,
            learning_rate=args.learning_rate,
            reg_lambda=args.reg_lambda,
            gamma=args.gamma,
            cv_folds=args.cv_folds,
            seed=seed,
        )
        model, _ = calibrate_gbt(
            normalized.values,
            target,
            objective,
            config,
            specs,
            prune_iterations=args.prune_iterations,
        )
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
        report = build_report(grouped, tie_policy=args.tie_policy)
    obj = io.report_to_obj(report)
    io.write_json(obj, args.output)
    if report.avg_corr is not None:
        print(f"avg_corr (unweighted): {io.format_float(report.avg_corr)} -> {args.output}")
    else:
        print(f"overall accuracy: {io.format_float(report.overall_accuracy)} -> {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
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
    p.set_defaults(func=_cmd_basemetrics)

    gp, gbt = GpConfig(), GbtConfig()
    p = sub.add_parser("calibrate", help="learn a calibrated model from scores + targets")
    p.add_argument("--scores", required=True)
    p.add_argument("--specs", required=True, help="metric spec JSON file")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--method", choices=("gp", "gbt"), default="gp")
    p.add_argument("--objective", choices=[o.value for o in ObjectiveKind], default="kendall")
    p.add_argument("--weighting", choices=[w.value for w in Weighting], default="linear")
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--prune-iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--init-points", type=int, default=gp.init_points,
                   help="probes before the first GP fit: the uniform and one-hot starts, "
                        "topped up with random ones to this count")
    p.add_argument("--n-iter", type=int, default=gp.n_iter)
    p.add_argument("--kappa", type=float, default=gp.kappa)
    p.add_argument("--fit-lengthscale", action="store_true",
                   help="refit the GP lengthscale by marginal likelihood")
    p.add_argument("--loss", choices=[l.value for l in GbtLoss], default=None,
                   help="gbt loss (default: squarederror, or pairwise for jsonl data)")
    p.add_argument("--max-depth", type=int, default=gbt.max_depth)
    p.add_argument("--learning-rate", type=float, default=gbt.learning_rate)
    p.add_argument("--reg-lambda", type=float, default=gbt.reg_lambda)
    p.add_argument("--gamma", type=float, default=gbt.gamma)
    p.add_argument("--cv-folds", type=int, default=gbt.cv_folds)
    p.add_argument("--n-estimators-low", type=int, default=gbt.n_estimators_low)
    p.add_argument("--n-estimators-high", type=int, default=gbt.n_estimators_high)
    p.add_argument("--n-estimators-step", type=int, default=gbt.n_estimators_step)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("score", help="apply a calibrated model to a score file")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evaluate", help="meta-evaluation statistics against human scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--model", default=None)
    p.add_argument("--metric", default=None, help="evaluate a raw score column instead of a model")
    p.add_argument("--tie-policy", choices=TIE_POLICIES, default="strict")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="weights / feature-importance report for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--sparsity-epsilon", type=float, default=io.SPARSITY_EPSILON,
                   help="linear weights below this magnitude are reported as dropped")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("split", help="seeded train/test split of a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--specs", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--train-fraction", type=float, default=io.TRAIN_FRACTION)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--train-output", required=True)
    p.add_argument("--test-output", required=True)
    p.set_defaults(func=_cmd_split)

    return parser


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
