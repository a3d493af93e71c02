import numpy as np
import pytest

from metacal.core import (
    CalibratedModel,
    ExampleId,
    InvalidSpec,
    MetacalError,
    MetricSpec,
    MissingTarget,
    ModelKind,
    PreferenceTarget,
    ScoreMatrix,
    Weighting,
    validate_alignment,
)


def _matrix(n_rows=3, n_cols=2):
    ids = [ExampleId("d", "s", str(i)) for i in range(n_rows)]
    values = np.arange(n_rows * n_cols, dtype=float).reshape(n_rows, n_cols)
    return ScoreMatrix(tuple(f"m{j}" for j in range(n_cols)), tuple(ids), values)


class TestMetricSpec:
    def test_min_must_be_below_max(self):
        with pytest.raises(InvalidSpec):
            MetricSpec("x", 1.0, 1.0)
        with pytest.raises(InvalidSpec):
            MetricSpec("x", 2.0, 1.0)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(InvalidSpec):
            MetricSpec("x", float("-inf"), 1.0)


class TestScoreMatrix:
    def test_row_width_must_match(self):
        with pytest.raises(MetacalError):
            ScoreMatrix.from_rows(("a", "b"), [(ExampleId("d", "s", "1"), [1.0])])

    def test_duplicate_ids_rejected(self):
        eid = ExampleId("d", "s", "1")
        with pytest.raises(MetacalError, match="duplicate"):
            ScoreMatrix.from_rows(("a",), [(eid, [1.0]), (eid, [2.0])])

    def test_non_finite_rejected(self):
        with pytest.raises(MetacalError, match="non-finite"):
            ScoreMatrix.from_rows(
                ("a",), [(ExampleId("d", "s", "1"), [float("nan")])]
            )

    def test_values_read_only(self):
        matrix = _matrix()
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 99.0


class TestValidateAlignment:
    def test_complete_pointwise_alignment_ok(self):
        matrix = _matrix(3)
        target = PreferenceTarget.from_pointwise(
            {eid: 1.0 for eid in matrix.example_ids}
        )
        validate_alignment(matrix, target)

    def test_missing_pointwise_target(self):
        matrix = _matrix(3)
        target = PreferenceTarget.from_pointwise(
            {eid: 1.0 for eid in matrix.example_ids[:2]}
        )
        with pytest.raises(MissingTarget):
            validate_alignment(matrix, target)


class TestCalibratedModel:
    def test_weight_count_checked_per_scheme(self):
        specs = tuple(MetricSpec(f"m{j}", 0, 1) for j in range(4))
        CalibratedModel(
            kind=ModelKind.LINEAR, metric_specs=specs, objective_used="kendall",
            seed=0, weighting=Weighting.MULTIPLICATIVE, weights=(0.0,) * 6,
        )
        with pytest.raises(MetacalError, match="weights"):
            CalibratedModel(
                kind=ModelKind.LINEAR, metric_specs=specs, objective_used="kendall",
                seed=0, weighting=Weighting.COMBINED, weights=(0.0,) * 6,
            )

    def test_gbt_feature_index_bound(self):
        from metacal.gbt import Leaf, Split, TreeEnsemble

        specs = (MetricSpec("only", 0, 1),)
        bad = TreeEnsemble(
            trees=(Split(feature=3, threshold=0.5, gain=1.0, left=Leaf(0.0), right=Leaf(1.0)),),
            base_score=0.5, learning_rate=0.1,
        )
        with pytest.raises(MetacalError, match="feature index"):
            CalibratedModel(
                kind=ModelKind.GBT, metric_specs=specs, objective_used="kendall",
                seed=0, trees=bad,
            )


def test_row_order_does_not_affect_set_statistics():
    # Any statistic over (score, target) pairs sees the same multiset.
    from metacal.objectives import kendall_tau

    rng = np.random.default_rng(5)
    values = rng.normal(size=(20, 1))
    z = rng.normal(size=20)
    perm = rng.permutation(20)
    assert kendall_tau(values[:, 0], z) == kendall_tau(values[perm, 0], z[perm])
