"""Public functions refuse bad arguments with a `MetacalError` subclass:
a text-metric order that is not a positive integer, a chrF beta that is
not finite and positive, a NaN or infinite score or kernel input, and a
feature-importance width that does not cover the model's split features."""

import math

import numpy as np
import pytest

from metacal import (
    MetacalError,
    MetricSpec,
    NonFiniteInput,
    TreeEnsemble,
    Weighting,
    bleu,
    chrf,
    expand_features,
    feature_importance,
    matern52,
    normalize_score,
)
from metacal.gbt import Tree
from metacal.preprocess import normalize_values
from metacal.textmetrics import SegmentPair

PAIRS = [SegmentPair("a b", "a b"), SegmentPair("ab", "ac")]
SPEC = MetricSpec("m", 0.0, 1.0)


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
]


@pytest.mark.parametrize("name, call, error", REFUSED, ids=[row[0] for row in REFUSED])
def test_refused(name, call, error):
    with pytest.raises(error):
        call()


def test_valid_arguments_still_score():
    assert bleu(PAIRS, max_n=np.int64(2))[0] == 1.0
    assert chrf(PAIRS, char_n=1, beta=1)[0] == 1.0
    assert normalize_score(2.0, SPEC) == 1.0
    assert feature_importance(_one_split_model(2), 3).tolist() == [0.0, 0.0, 2.0]
