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
    PreferencePair,
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
            ScoreMatrix(("a", "b"), (ExampleId("d", "s", "1"),), np.array([[1.0]]))

    def test_duplicate_ids_rejected(self):
        eid = ExampleId("d", "s", "1")
        with pytest.raises(MetacalError, match="duplicate"):
            ScoreMatrix(("a",), (eid, eid), np.array([[1.0], [2.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(MetacalError, match="non-finite"):
            ScoreMatrix(("a",), (ExampleId("d", "s", "1"),), np.array([[float("nan")]]))

    def test_values_read_only(self):
        matrix = _matrix()
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 99.0


class TestValidateAlignment:
    def test_complete_pointwise_alignment_ok(self):
        matrix = _matrix(3)
        target = PreferenceTarget.from_pointwise([1.0] * matrix.n_examples)
        validate_alignment(matrix, target)

    def test_missing_pointwise_target(self):
        matrix = _matrix(3)
        target = PreferenceTarget.from_pointwise([1.0] * 2)
        with pytest.raises(MissingTarget):
            validate_alignment(matrix, target)

    def test_pair_count_must_match_rows(self):
        target = PreferenceTarget.from_pairs(PreferencePair(f"g{i}") for i in range(2))
        validate_alignment(_matrix(4), target)
        for rows in (3, 5):
            with pytest.raises(MissingTarget, match=f"{rows} matrix rows for 2 pairwise"):
                validate_alignment(_matrix(rows), target)

    @pytest.mark.parametrize("z", [
        {ExampleId("d", "s", "0"): 1.0}, [[1.0, 2.0]], [1.0, float("nan")], ["x"],
    ])
    def test_from_pointwise_takes_finite_flat_z(self, z):
        with pytest.raises(MetacalError):
            PreferenceTarget.from_pointwise(z)

    def test_z_is_read_only_copy(self):
        source = np.array([1.0, 2.0])
        target = PreferenceTarget.from_pointwise(source)
        source[0] = 9.0
        assert target.z.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            target.z[0] = 5.0
        assert target == PreferenceTarget.from_pointwise([1.0, 2.0])
        assert target != PreferenceTarget.from_pointwise([1.0, 3.0])


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
        from metacal.gbt import Tree, TreeEnsemble

        specs = (MetricSpec("only", 0, 1),)
        bad = TreeEnsemble(
            trees=(Tree(feature=[3, 0, 0], threshold=[0.5, 0, 0], gain=[1.0, 0, 0],
                        value=[0.0, 0.0, 1.0], right=[2, 0, 0]),),
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
