"""Public functions refuse bad arguments with a `MetacalError` subclass:
a text-metric order that is not a positive integer, a chrF beta that is
not finite and positive, a NaN or infinite score, statistic or kernel
input, mismatched lengths, and a width or size that does not fit.

Every callable in `metacal.__all__` has a row in `REFUSED` (its name is the
first word of the row id) or sits in `EXEMPT` with the reason it has
nothing to refuse, so a new public name needs one or the other.  Likewise
every public callable that takes a `target` has a `MISALIGNED` entry: with
one feature row too many or too few it refuses, naming the row count."""

import inspect
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import metacal
from metacal import (
    CalibratedModel,
    DegenerateInput,
    EmptyInput,
    ExampleId,
    GbtConfig,
    GbtLoss,
    GpConfig,
    GroupedScores,
    LengthMismatch,
    MetacalError,
    MetricSpec,
    MissingTarget,
    ModelKind,
    NonFiniteInput,
    ObjectiveKind,
    PreferencePair,
    PreferenceTarget,
    ScoreMatrix,
    TreeEnsemble,
    Weighting,
    acc_t,
    avg_corr,
    bleu,
    build_report,
    calibrate_gbt,
    calibrate_gp,
    chrf,
    cross_validate,
    expand_features,
    feature_importance,
    gbt_train,
    gp_fit,
    gp_predict,
    grouped_pairwise_accuracy,
    kendall_tau,
    load_model,
    load_scores,
    load_specs,
    matern52,
    normalize_matrix,
    normalize_score,
    pairwise_accuracy,
    pearson_r,
    pointwise_z,
    report_model,
    score_corpus,
    score_with_model,
    search_n_estimators,
    seg_pearson,
    select_top_k,
    spearman_rho,
    split_train_test,
    sys_pearson,
    validate_alignment,
)
from metacal.harness import DatasetStats
from metacal.gbt import Tree
from metacal.preprocess import normalize_values
from metacal.textmetrics import SegmentPair

PAIRS = [SegmentPair("a b", "a b"), SegmentPair("ab", "ac")]
SPEC = MetricSpec("m", 0.0, 1.0)
NOT_JSON = str(Path(__file__).resolve().parents[1] / "src" / "metacal" / "data" / "desk_corpus.csv")
KENDALL = ObjectiveKind.KENDALL
FOLDS = GbtConfig(cv_folds=2)
X_NAN = np.array([[math.nan], [1.0], [0.5]])
Z3 = np.array([0.0, 1.0, 2.0])
MATRIX = ScoreMatrix(("m",), (ExampleId("d", "s", "1"), ExampleId("d", "s", "2")), np.array([[0.1], [0.2]]))
LINEAR = CalibratedModel(ModelKind.LINEAR, (SPEC,), "kendall", 0, weighting=Weighting.LINEAR, weights=(1.0,))
ONE_CELL = GroupedScores.from_examples([(ExampleId("d", "s", "1"), 0.1, 1.0)])
NAN_CELL = GroupedScores.from_examples(
    (ExampleId("d", f"s{i}", str(j)), math.nan if i == j == 0 else i + j / 2, 2.0 * i + j)
    for i in range(3) for j in range(2))
INF_HUMAN = GroupedScores.from_examples(
    (ExampleId("d", f"s{i}", "1"), float(i), math.inf if i == 0 else float(i)) for i in range(3))


def _one_split_model(feature: int) -> TreeEnsemble:
    tree = Tree(
        feature=np.array([feature, 0, 0]),
        threshold=np.array([0.5, 0.0, 0.0]),
        gain=np.array([2.0, 0.0, 0.0]),
        value=np.array([0.0, -1.0, 1.0]),
        right=np.array([2, 0, 0]),
    )
    return TreeEnsemble(trees=(tree,), base_score=0.0, learning_rate=0.1)


REFUSED = [
    ("bleu max_n=0", lambda: bleu(PAIRS, max_n=0), MetacalError),
    ("bleu max_n=-1", lambda: bleu(PAIRS, max_n=-1), MetacalError),
    ("bleu max_n=2.0", lambda: bleu(PAIRS, max_n=2.0), MetacalError),
    ("bleu max_n=True", lambda: bleu(PAIRS, max_n=True), MetacalError),
    ("chrf char_n=0", lambda: chrf(PAIRS, char_n=0), MetacalError),
    ("chrf beta=-1", lambda: chrf(PAIRS, beta=-1.0), MetacalError),
    ("chrf beta=0", lambda: chrf(PAIRS, beta=0.0), MetacalError),
    ("chrf beta=nan", lambda: chrf(PAIRS, beta=math.nan), MetacalError),
    ("chrf beta=inf", lambda: chrf(PAIRS, beta=math.inf), MetacalError),
    ("normalize_score inf", lambda: normalize_score(math.inf, SPEC), NonFiniteInput),
    ("normalize_score -inf", lambda: normalize_score(-math.inf, SPEC), NonFiniteInput),
    ("normalize_score nan", lambda: normalize_score(math.nan, SPEC), NonFiniteInput),
    ("normalize_values inf", lambda: normalize_values(np.array([[math.inf]]), [SPEC]), NonFiniteInput),
    ("expand_features nan", lambda: expand_features([math.nan, 1.0], Weighting.COMBINED), NonFiniteInput),
    ("expand_features inf", lambda: expand_features([math.inf], Weighting.LINEAR), NonFiniteInput),
    ("matern52 nan", lambda: matern52([math.nan], [0.0], 1.0), NonFiniteInput),
    ("matern52 inf", lambda: matern52([0.0], [math.inf], 1.0), NonFiniteInput),
    ("feature_importance 0 of 1", lambda: feature_importance(_one_split_model(0), 0), MetacalError),
    ("feature_importance 2 of 3", lambda: feature_importance(_one_split_model(2), 2), MetacalError),
    ("feature_importance -1", lambda: feature_importance(_one_split_model(0), -1), MetacalError),
    ("avg_corr nan", lambda: avg_corr({"d": DatasetStats(0.5, math.nan, 0.5)}), NonFiniteInput),
    ("avg_corr inf", lambda: avg_corr({"d": DatasetStats(0.5, 0.5, math.inf)}), NonFiniteInput),
    ("avg_corr empty", lambda: avg_corr({}), EmptyInput),
    ("kendall_tau nan", lambda: kendall_tau([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0]), NonFiniteInput),
    ("kendall_tau lengths", lambda: kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0]), LengthMismatch),
    ("spearman_rho inf", lambda: spearman_rho([1.0, 2.0, 3.0], [1.0, math.inf, 3.0]), NonFiniteInput),
    ("pearson_r nan", lambda: pearson_r([1.0, 2.0, math.nan], [1.0, 2.0, 3.0]), NonFiniteInput),
    ("pairwise_accuracy nan", lambda: pairwise_accuracy([math.nan], [1.0]), NonFiniteInput),
    ("pairwise_accuracy lengths", lambda: pairwise_accuracy([1.0, 2.0], [1.0]), LengthMismatch),
    ("pairwise_accuracy empty", lambda: pairwise_accuracy([], []), EmptyInput),
    ("gp_fit nan", lambda: gp_fit([[math.nan]], [0.5], GpConfig()), NonFiniteInput),
    ("gp_fit empty", lambda: gp_fit(np.empty((0, 1)), [], GpConfig()), EmptyInput),
    ("gp_predict nan", lambda: gp_predict(gp_fit([[0.1], [0.5]], [0.2, 0.4], GpConfig()), [math.nan]),
     NonFiniteInput),
    ("gbt_train nan", lambda: gbt_train(X_NAN, Z3, GbtConfig(), 1), NonFiniteInput),
    ("gbt_train zero trees", lambda: gbt_train(np.eye(3), Z3, GbtConfig(), 0), MetacalError),
    ("cross_validate nan", lambda: cross_validate(X_NAN, Z3, KENDALL, FOLDS, 1), NonFiniteInput),
    ("search_n_estimators nan", lambda: search_n_estimators(X_NAN, Z3, KENDALL, FOLDS), NonFiniteInput),
    ("calibrate_gbt nan", lambda: calibrate_gbt(X_NAN, Z3, KENDALL, FOLDS, [SPEC]), NonFiniteInput),
    ("calibrate_gbt prune_iterations=0",
     lambda: calibrate_gbt(np.eye(3)[:, :1], Z3, KENDALL, FOLDS, [SPEC], prune_iterations=0), MetacalError),
    ("calibrate_gp misaligned", lambda: calibrate_gp(MATRIX, PreferenceTarget.from_pointwise(Z3), KENDALL,
                                                     GpConfig()), MissingTarget),
    ("select_top_k k=0", lambda: select_top_k(MATRIX, PreferenceTarget.from_pointwise(Z3[:2]), KENDALL, 0),
     MetacalError),
    ("validate_alignment", lambda: validate_alignment(MATRIX, PreferenceTarget.from_pointwise([1.0])),
     MissingTarget),
    ("pointwise_z of pairs", lambda: pointwise_z(MATRIX, PreferenceTarget.from_pairs([PreferencePair("g")])),
     MetacalError),
    ("normalize_matrix specs", lambda: normalize_matrix(MATRIX, [MetricSpec("x", 0.0, 1.0)]), MetacalError),
    ("score_corpus ids", lambda: score_corpus(PAIRS[:1], ["bleu"], list(MATRIX.example_ids)), MetacalError),
    ("score_corpus unknown metric", lambda: score_corpus(PAIRS, ["nope"]), MetacalError),
    ("load_scores format", lambda: load_scores("scores.csv", "xml", [SPEC]), MetacalError),
    ("load_model not JSON", lambda: load_model(NOT_JSON), MetacalError),
    ("load_specs not JSON", lambda: load_specs(NOT_JSON), MetacalError),
    ("report_model epsilon nan", lambda: report_model(LINEAR, epsilon=math.nan), MetacalError),
    ("score_with_model columns",
     lambda: score_with_model(LINEAR, ScoreMatrix(("x",), MATRIX.example_ids, MATRIX.values)), MetacalError),
    ("split_train_test fraction 0", lambda: split_train_test([1, 2, 3], 0.0), MetacalError),
    ("split_train_test seed -1", lambda: split_train_test([1, 2, 3], seed=-1), MetacalError),
    ("acc_t tie policy", lambda: acc_t(ONE_CELL, "d", "nope"), MetacalError),
    ("acc_t nan metric", lambda: acc_t(NAN_CELL, "d"), NonFiniteInput),
    ("acc_t inf human", lambda: acc_t(INF_HUMAN, "d"), NonFiniteInput),
    ("seg_pearson unknown dataset", lambda: seg_pearson(ONE_CELL, "x"), MetacalError),
    ("sys_pearson one system", lambda: sys_pearson(ONE_CELL, "d"), DegenerateInput),
    ("build_report nan", lambda: build_report(NAN_CELL), NonFiniteInput),
    ("grouped_pairwise_accuracy lengths", lambda: grouped_pairwise_accuracy(["a"], [1.0, 2.0], [1.0]),
     LengthMismatch),
    ("grouped_pairwise_accuracy nan", lambda: grouped_pairwise_accuracy(["a"], [math.nan], [1.0]),
     NonFiniteInput),
    ("GroupedScores.from_examples repeated cell",
     lambda: GroupedScores.from_examples([(ExampleId("d", "s", "1"), 0.1, 1.0)] * 2), MetacalError),
    ("CalibratedModel weight count", lambda: CalibratedModel(
        ModelKind.LINEAR, (SPEC,), "kendall", 0, weighting=Weighting.COMBINED, weights=(1.0, 2.0)), MetacalError),
    ("CalibratedModel nan weight", lambda: CalibratedModel(
        ModelKind.LINEAR, (SPEC,), "kendall", 0, weighting=Weighting.LINEAR, weights=(math.nan,)), MetacalError),
    ("MetricSpec nan bound", lambda: MetricSpec("m", math.nan, 1.0), MetacalError),
    ("MetricSpec empty range", lambda: MetricSpec("m", 1.0, 1.0), MetacalError),
    ("ScoreMatrix nan", lambda: ScoreMatrix(("m",), MATRIX.example_ids[:1], [[math.nan]]), MetacalError),
    ("PreferenceTarget nan z", lambda: PreferenceTarget.from_pointwise([math.nan]), MetacalError),
    ("GbtConfig learning_rate nan", lambda: GbtConfig(learning_rate=math.nan), MetacalError),
    ("GbtConfig seed -1", lambda: GbtConfig(seed=-1), MetacalError),
    ("GpConfig kappa nan", lambda: GpConfig(kappa=math.nan), MetacalError),
    ("GpConfig seed -1", lambda: GpConfig(seed=-1), MetacalError),
    ("TreeEnsemble nan base_score", lambda: TreeEnsemble((), math.nan, 0.1), MetacalError),
    ("TreeEnsemble inf learning_rate", lambda: TreeEnsemble((), 0.5, math.inf), MetacalError),
    ("TreeEnsemble.predict nan", lambda: _one_split_model(0).predict([[math.nan]]), NonFiniteInput),
]

# Public callables with nothing to refuse, and why.
_ERROR_TYPE = "an error type: raised, not called with data"
_ENUM = "an enum: a lookup by value, refused with ValueError by the enum module"
_RESULT = "a result record, built only by the function that returns it"
EXEMPT = {
    **dict.fromkeys(["DegenerateInput", "EmptyInput", "LengthMismatch", "MetacalError", "MissingTarget",
                     "NonFiniteInput"], _ERROR_TYPE),
    **dict.fromkeys(["GbtLoss", "LengthscalePolicy", "ModelKind", "ObjectiveKind", "TargetKind", "Weighting"],
                    _ENUM),
    **dict.fromkeys(["EvalReport", "GpSurrogate", "PruneTrace"], _RESULT),
    "ExampleId": "three id strings; ScoreMatrix refuses repeated ids",
    "PreferencePair": "a group and a category string",
    "SegmentPair": "a hypothesis and a reference text",
    "rouge_1": "takes only text pairs, and every pair of texts scores",
    "rouge_2": "takes only text pairs, and every pair of texts scores",
    "rouge_l": "takes only text pairs, and every pair of texts scores",
    "save_model": "writes a CalibratedModel, which refuses bad fields when it is built",
    "suggest_next": "takes a surrogate from gp_fit, which refuses non-finite observations",
    "unstack_pairs": "splits any sequence by position",
}



def _matrix(n: int) -> ScoreMatrix:
    return ScoreMatrix(("m",), tuple(ExampleId("d", "s", str(i)) for i in range(n)),
                       np.arange(n, dtype=float).reshape(n, 1) / n)


# Two targets over 4 rows, each with a config whose loss fits it.
TARGETS = {
    "pointwise": (PreferenceTarget.from_pointwise([0.1, 0.4, 0.2, 0.9]), FOLDS),
    "pairwise": (PreferenceTarget.from_pairs([PreferencePair("g1"), PreferencePair("g2")]),
                 replace(FOLDS, loss=GbtLoss.PAIRWISE_RANK)),
}
# Each public callable that takes a target, called on n rows against a target over 4.
MISALIGNED = {
    "gbt_train": lambda n, target, config: gbt_train(_matrix(n).values, target, config, 1),
    "cross_validate": lambda n, target, config: cross_validate(_matrix(n).values, target, KENDALL, config, 1),
    "search_n_estimators": lambda n, target, config: search_n_estimators(
        _matrix(n).values, target, KENDALL, config),
    "calibrate_gbt": lambda n, target, config: calibrate_gbt(_matrix(n).values, target, KENDALL, config, [SPEC]),
    "calibrate_gp": lambda n, target, config: calibrate_gp(_matrix(n), target, KENDALL, GpConfig()),
    "select_top_k": lambda n, target, config: select_top_k(_matrix(n), target, KENDALL, 1),
    "validate_alignment": lambda n, target, config: validate_alignment(_matrix(n), target),
    "pointwise_z": lambda n, target, config: pointwise_z(_matrix(n), target),
}


@pytest.mark.parametrize("name, kind, n", [
    (name, kind, n) for name in MISALIGNED for kind in TARGETS for n in (3, 5)
    if (name, kind) != ("pointwise_z", "pairwise")  # a pairwise target has no z to align
])
def test_misaligned_rows_are_refused(name, kind, n):
    with pytest.raises(MetacalError, match=rf"\b{n} (feature|matrix) rows\b"):
        MISALIGNED[name](n, *TARGETS[kind])


def _takes_target(obj) -> bool:
    try:
        return "target" in inspect.signature(obj).parameters
    except (TypeError, ValueError):
        return False


def test_every_entry_point_taking_a_target_has_misaligned_rows():
    public = {name for name in metacal.__all__ if callable(getattr(metacal, name))}
    assert sorted({name for name in public if _takes_target(getattr(metacal, name))} ^ set(MISALIGNED)) == []


@pytest.mark.parametrize("name, call, error", REFUSED, ids=[row[0] for row in REFUSED])
def test_refused(name, call, error):
    with pytest.raises(error):
        call()


def test_every_public_callable_has_a_row_or_an_exemption():
    public = {name for name in metacal.__all__ if callable(getattr(metacal, name))}
    rowed = {row[0].split()[0].split(".")[0] for row in REFUSED}
    assert sorted(public - rowed - set(EXEMPT)) == []
    assert sorted(set(EXEMPT) - public) == []
    assert sorted(set(EXEMPT) & rowed) == []


def test_valid_arguments_still_score():
    assert bleu(PAIRS, max_n=np.int64(2))[0] == 1.0
    assert chrf(PAIRS, char_n=1, beta=1)[0] == 1.0
    assert normalize_score(2.0, SPEC) == 1.0
    assert feature_importance(_one_split_model(2), 3).tolist() == [0.0, 0.0, 2.0]
