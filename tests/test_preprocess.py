import numpy as np
import pytest
from hypothesis import given, strategies as st

from metacal.core import ExampleId, MetricSpec, ScoreMatrix
from metacal.preprocess import (
    SpecMismatch,
    normalize_matrix,
    normalize_score,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12)


@st.composite
def spec_and_raw(draw):
    lo = draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    span = draw(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    higher = draw(st.booleans())
    raw = draw(finite)
    return MetricSpec("m", lo, lo + span, higher), raw


def test_clipped_at_max():
    assert normalize_score(250.0, MetricSpec("m", 0, 100)) == 1.0


def test_lower_is_better_inverts():
    assert normalize_score(5.0, MetricSpec("m", 0, 25, higher_is_better=False)) == pytest.approx(0.8)


def test_identity_region():
    assert normalize_score(0.37, MetricSpec("m", 0, 1)) == 0.37


@given(spec_and_raw())
def test_output_in_unit_interval(case):
    spec, raw = case
    assert 0.0 <= normalize_score(raw, spec) <= 1.0


@given(spec_and_raw(), finite)
def test_monotonicity(case, other):
    spec, raw = case
    lo, hi = sorted([raw, other])
    a = normalize_score(lo, spec)
    b = normalize_score(hi, spec)
    if spec.higher_is_better:
        assert a <= b
    else:
        assert a >= b


@given(spec_and_raw())
def test_inversion_involution_exact(case):
    spec, raw = case
    up = MetricSpec(spec.name, spec.min, spec.max, True)
    down = MetricSpec(spec.name, spec.min, spec.max, False)
    assert normalize_score(raw, down) == 1.0 - normalize_score(raw, up)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_unit_spec_is_identity(value):
    assert normalize_score(value, MetricSpec("m", 0.0, 1.0)) == value


class TestNormalizeMatrix:
    def _matrix(self, values, names=None):
        values = np.asarray(values, dtype=float)
        names = names or tuple(f"m{j}" for j in range(values.shape[1]))
        ids = tuple(ExampleId("d", "s", str(i)) for i in range(values.shape[0]))
        return ScoreMatrix(tuple(names), ids, values)

    def test_identity_on_in_range_unit_specs(self):
        matrix = self._matrix([[0.2, 0.8], [0.5, 0.1]])
        specs = tuple(MetricSpec(n, 0, 1) for n in matrix.metric_names)
        out = normalize_matrix(matrix, specs)
        np.testing.assert_array_equal(out.values, matrix.values)
        assert out.example_ids == matrix.example_ids

    def test_endpoints_with_inversion(self):
        matrix = self._matrix([[0.0], [25.0]])
        specs = (MetricSpec("m0", 0, 25, higher_is_better=False),)
        out = normalize_matrix(matrix, specs)
        np.testing.assert_array_equal(out.values[:, 0], [1.0, 0.0])

    def test_matches_scalar_op_cell_by_cell(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(-50, 150, size=(20, 3))
        specs = (
            MetricSpec("a", 0, 100),
            MetricSpec("b", -1, 1, higher_is_better=False),
            MetricSpec("c", 0, 1),
        )
        matrix = self._matrix(values, names=("a", "b", "c"))
        out = normalize_matrix(matrix, specs)
        for i in range(matrix.n_examples):
            for j, spec in enumerate(specs):
                assert out.values[i, j] == normalize_score(values[i, j], spec)

    def test_column_count_mismatch(self):
        matrix = self._matrix([[0.1, 0.2]])
        with pytest.raises(SpecMismatch):
            normalize_matrix(matrix, (MetricSpec("m0", 0, 1),))

    def test_name_mismatch(self):
        matrix = self._matrix([[0.1]])
        with pytest.raises(SpecMismatch):
            normalize_matrix(matrix, (MetricSpec("other", 0, 1),))
