import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metacal.core import MetacalError, PreferencePair, PreferenceTarget
from metacal.objectives import (
    DegenerateInput,
    EmptyInput,
    LengthMismatch,
    NonFiniteInput,
    ObjectiveKind,
    alignment_scorer,
    correlation,
    kendall_tau,
    pairwise_accuracy,
    pearson_r,
    prepare,
    score_or_worst,
    spearman_rho,
)
from metacal.objectives import _midranks

from oracles import (
    loop_midranks,
    naive_kendall_tau,
    naive_pairwise_accuracy,
    naive_pearson,
    naive_spearman,
    table_kendall_tau,
)


def _random_paired(rng, with_ties=True):
    n = int(rng.integers(2, 51))
    while True:
        if with_ties and rng.uniform() < 0.7:
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
        else:
            a = rng.normal(size=n)
            b = rng.normal(size=n)
        if not np.all(a == a[0]) and not np.all(b == b[0]):
            return a, b


class TestKendall:
    def test_identical_ranking(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversed_ranking(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_one_discordant_pair(self):
        # 6 pairs: 5 concordant, 1 discordant, no ties
        assert kendall_tau([1, 2, 3, 4], [2, 1, 3, 4]) == pytest.approx(4 / 6, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            kendall_tau([1, 2], [1, 2, 3])

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateInput):
            kendall_tau([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInput):
            kendall_tau([1, 2, 3], [5, 5, 5])

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = _random_paired(rng)
            assert kendall_tau(a, b) == pytest.approx(naive_kendall_tau(a, b), abs=1e-12)

    def test_negation_flips_sign_when_b_untied(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            a = rng.integers(0, 4, size=n).astype(float)
            b = rng.permutation(n).astype(float)  # no ties in b
            if np.all(a == a[0]):
                continue
            assert kendall_tau(a, -b) == pytest.approx(-kendall_tau(a, b), abs=1e-14)


class TestSpearman:
    def test_identical(self):
        assert spearman_rho([4, 5, 9], [4, 5, 9]) == 1.0

    def test_single_swap(self):
        # 1 - 6 * sum(d^2) / (n (n^2 - 1)) with sum(d^2) = 2, n = 3
        assert spearman_rho([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-15)

    def test_reversed(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a, b = _random_paired(rng)
            assert spearman_rho(a, b) == pytest.approx(naive_spearman(a, b), abs=1e-12)


class TestPearson:
    def test_identical_nonconstant(self):
        assert pearson_r([1, 4, 6], [1, 4, 6]) == 1.0

    def test_hand_computed(self):
        # cov = 3, var_a = 2, var_b = 14/3
        assert pearson_r([1, 2, 3], [1, 2, 4]) == pytest.approx(
            3 / np.sqrt(2 * 14 / 3), abs=1e-12
        )

    def test_perfect_negative_affine(self):
        assert pearson_r([1, 2, 3], [-1, -2, -3]) == -1.0

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateInput):
            pearson_r([2, 2, 2], [1, 2, 3])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a, b = _random_paired(rng)
            assert pearson_r(a, b) == pytest.approx(naive_pearson(a, b), abs=1e-12)


class TestLargeTiedParity:
    """Exact parity at sizes the O(n^2) oracles cannot reach, with long tie
    runs on both sides (a few distinct values over 10^4 or 10^5 entries)."""

    @pytest.mark.parametrize("n, levels", [(10_000, 7), (100_000, 25)])
    def test_matches_run_loop_and_table_references(self, n, levels):
        rng = np.random.default_rng(n)
        ka = rng.integers(-levels, levels, size=n)
        a = ka / 4.0
        # a's value group k ends, and group k + 1 starts, on the same b value,
        # so runs of equal (a, b) must also break where a changes.
        b = (ka + rng.integers(0, 2, size=n)) // 2 * 0.5
        c = rng.integers(0, 12 * levels, size=n) * 0.1
        for values in (a, b, c):
            assert np.array_equal(_midranks(values), loop_midranks(values))
        for x, y in ((a, b), (b, a), (a, c), (c, b)):
            assert spearman_rho(x, y) == pearson_r(loop_midranks(x), loop_midranks(y))
            assert kendall_tau(x, y) == table_kendall_tau(x, y)
        assert table_kendall_tau(a[:50], c[:50]) == pytest.approx(
            naive_kendall_tau(a[:50], c[:50]), abs=1e-12
        )

    def test_midranks_with_many_short_runs(self):
        values = np.random.default_rng(5).integers(0, 50_000, size=100_000).astype(float)
        assert np.array_equal(_midranks(values), loop_midranks(values))


class TestPreparedTarget:
    """A prepared z stands in for the plain second list: same bits, same
    errors in the same order."""

    _CORRELATIONS = {
        ObjectiveKind.KENDALL: kendall_tau,
        ObjectiveKind.SPEARMAN: spearman_rho,
        ObjectiveKind.PEARSON: pearson_r,
    }

    @pytest.mark.parametrize("kind", list(_CORRELATIONS))
    def test_one_target_reused_across_many_first_lists(self, kind):
        fn = self._CORRELATIONS[kind]
        rng = np.random.default_rng(17)
        for n, levels in ((60, None), (720, 10), (2_000, 3)):
            z = rng.normal(size=n) if levels is None else rng.integers(0, levels, n).astype(float)
            target = prepare(kind, z)
            for _ in range(30):
                a = rng.integers(0, int(rng.integers(2, 40)), n).astype(float)
                assert fn(a, target) == fn(a, z)
                assert correlation(kind, a, target) == fn(a, z)

    @pytest.mark.parametrize("kind", list(_CORRELATIONS))
    @pytest.mark.parametrize("prepared", [False, True])
    def test_length_mismatch_comes_before_non_finite(self, kind, prepared):
        z = [1.0, 2.0, 3.0]
        with pytest.raises(LengthMismatch):
            self._CORRELATIONS[kind]([np.nan, 1.0], prepare(kind, z) if prepared else z)

    @pytest.mark.parametrize("kind", [ObjectiveKind.KENDALL, ObjectiveKind.SPEARMAN])
    @pytest.mark.parametrize("prepared", [False, True])
    def test_first_constant_list_is_named_before_the_second(self, kind, prepared):
        z = [2.0, 2.0, 2.0]
        with pytest.raises(DegenerateInput, match="first list is constant"):
            self._CORRELATIONS[kind]([1.0, 1.0, 1.0], prepare(kind, z) if prepared else z)
        with pytest.raises(DegenerateInput, match="second list is constant"):
            self._CORRELATIONS[kind]([1.0, 2.0, 3.0], prepare(kind, z) if prepared else z)

    @pytest.mark.parametrize("kind", list(_CORRELATIONS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_preparing_a_non_finite_target_is_refused(self, kind, bad):
        with pytest.raises(NonFiniteInput):
            prepare(kind, [0.1, bad, 0.3])
        with pytest.raises(NonFiniteInput):
            self._CORRELATIONS[kind]([0.1, bad, 0.3], prepare(kind, [1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("kind", list(_CORRELATIONS))
    def test_too_short_target_is_refused(self, kind):
        with pytest.raises(LengthMismatch):
            prepare(kind, [1.0])

    @pytest.mark.parametrize("kind", list(_CORRELATIONS))
    def test_score_or_worst_maps_degenerate_to_minus_one(self, kind):
        assert score_or_worst(kind, [1.0, 1.0, 1.0], prepare(kind, [1.0, 2.0, 3.0])) == -1.0
        assert score_or_worst(kind, [1.0, 2.0, 3.0], prepare(kind, [4.0, 4.0, 4.0])) == -1.0
        assert score_or_worst(kind, [1.0, 2.0, 3.0], prepare(kind, [1.0, 2.0, 3.0])) == 1.0

    def test_pairwise_accuracy_is_not_a_correlation(self):
        with pytest.raises(MetacalError, match="not a correlation"):
            prepare(ObjectiveKind.PAIRWISE_ACCURACY, [1.0, 2.0])

    def test_target_of_another_kind_is_refused(self):
        with pytest.raises(MetacalError, match="cannot stand in"):
            kendall_tau([1.0, 2.0, 3.0], prepare(ObjectiveKind.SPEARMAN, [1.0, 2.0, 3.0]))


@st.composite
def _tied_lists(draw):
    """Paired lists of up to 50 values drawn from a few levels each."""
    n = draw(st.integers(min_value=2, max_value=50))
    a_levels = draw(st.integers(min_value=2, max_value=6))
    b_levels = draw(st.integers(min_value=2, max_value=6))
    a = draw(st.lists(st.integers(0, a_levels - 1), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, b_levels - 1), min_size=n, max_size=n))
    return np.asarray(a, float), np.asarray(b, float)


@given(_tied_lists())
@settings(max_examples=300, deadline=None)
def test_kendall_matches_pair_enumeration_under_heavy_ties(lists):
    a, b = lists
    if np.all(a == a[0]) or np.all(b == b[0]):
        return
    assert kendall_tau(a, b) == pytest.approx(naive_kendall_tau(a, b), abs=1e-12)


@pytest.mark.parametrize("levels", [256, 257, 65_536, 65_537, 131_072, 131_073])
def test_kendall_exact_at_rank_dtype_boundaries(levels):
    """z's dense ranks change dtype above 256 and 65,536 levels, and the
    sort keys of the last bit stop fitting 16 bits above 131,072 levels."""
    rng = np.random.default_rng(levels)
    n = levels + 3_000
    z = np.concatenate([np.arange(levels), rng.integers(0, levels, n - levels)]) * 0.5
    rng.shuffle(z)
    a = rng.integers(0, 7, n) * 0.25
    assert kendall_tau(a, z) == table_kendall_tau(a, z)
    assert kendall_tau(z, a) == table_kendall_tau(z, a)


class TestNonFiniteInput:
    @pytest.mark.parametrize("fn", [kendall_tau, spearman_rho, pearson_r])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_correlations_reject(self, fn, bad):
        with pytest.raises(NonFiniteInput):
            fn([0.1, bad, 0.3, 0.4], [1, 2, 3, 4])
        with pytest.raises(NonFiniteInput):
            fn([1, 2, 3, 4], [0.1, bad, 0.3, 0.4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pairwise_accuracy_rejects(self, bad):
        with pytest.raises(NonFiniteInput):
            pairwise_accuracy([bad, 0.2], [0.1, 0.1])
        with pytest.raises(NonFiniteInput):
            pairwise_accuracy([0.3, 0.2], [0.1, bad])


class TestPairwiseAccuracy:
    def test_all_correct(self):
        assert pairwise_accuracy([2, 5], [1, 0]) == 1.0

    def test_all_wrong(self):
        assert pairwise_accuracy([1, 0], [2, 5]) == 0.0

    def test_tie_credit(self):
        assert pairwise_accuracy([2, 3, 4, 1], [1, 1, 1, 1]) == 0.875

    def test_empty(self):
        with pytest.raises(EmptyInput):
            pairwise_accuracy([], [])

    def test_unaligned_arrays_rejected(self):
        with pytest.raises(LengthMismatch):
            pairwise_accuracy([2, 5], [1])

    def test_swap_symmetry_without_ties(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            pairs = [tuple(p) for p in rng.normal(size=(rng.integers(1, 30), 2))]
            swapped = [(r, c) for c, r in pairs]
            assert pairwise_accuracy(*zip(*pairs)) + pairwise_accuracy(*zip(*swapped)) == pytest.approx(1.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            pairs = [tuple(p) for p in rng.integers(0, 4, size=(rng.integers(1, 40), 2)).astype(float)]
            assert pairwise_accuracy(*zip(*pairs)) == naive_pairwise_accuracy(pairs)


class TestAlignmentScorer:
    @staticmethod
    def _spy(calls):
        def meta(x):
            calls.append(np.array(x))
            return x @ np.array([0.5, -0.25])
        return meta

    def test_pairwise_halves_are_scored_by_separate_calls(self):
        # A product over all stacked rows can differ in the last bit from
        # the products over each half (seen with OpenBLAS for one pair: a
        # 2 x 2 product against two 1 x 2 ones), so each half gets its own
        # call.
        rows = np.arange(12.0).reshape(6, 2)
        target = PreferenceTarget.from_pairs(PreferencePair(f"g{i}") for i in range(3))
        calls = []
        score = alignment_scorer(ObjectiveKind.KENDALL, target)(self._spy(calls), rows)
        assert [c.tolist() for c in calls] == [rows[0::2].tolist(), rows[1::2].tolist()]
        assert score == pairwise_accuracy(rows[0::2] @ [0.5, -0.25], rows[1::2] @ [0.5, -0.25])

    def test_pointwise_rows_are_scored_by_one_call(self):
        rows = np.arange(12.0).reshape(6, 2)
        calls = []
        alignment_scorer(ObjectiveKind.SPEARMAN, PreferenceTarget.from_pointwise(np.arange(6.0)))(
            self._spy(calls), rows)
        assert [c.tolist() for c in calls] == [rows.tolist()]


# Monotone-transform strategies keep values in ranges where exp stays finite.
_vals = st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=25)


@given(_vals, _vals)
@settings(max_examples=200)
def test_rank_objectives_invariant_under_increasing_transform(a, b):
    if len(a) != len(b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if np.all(a == a[0]) or np.all(b == b[0]):
        return
    transformed = 3.0 * a + np.exp(a / 25.0)  # strictly increasing
    assert kendall_tau(transformed, b) == pytest.approx(kendall_tau(a, b), abs=1e-12)
    assert spearman_rho(transformed, b) == pytest.approx(spearman_rho(a, b), abs=1e-12)


@given(_vals, _vals)
@settings(max_examples=200)
def test_correlations_symmetric(a, b):
    if len(a) != len(b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if np.all(a == a[0]) or np.all(b == b[0]):
        return
    for kind in (ObjectiveKind.KENDALL, ObjectiveKind.SPEARMAN, ObjectiveKind.PEARSON):
        assert correlation(kind, a, b) == pytest.approx(correlation(kind, b, a), abs=1e-12)


def test_pearson_affine_invariance_and_negation():
    rng = np.random.default_rng(16)
    a = rng.normal(size=30)
    b = rng.normal(size=30)
    r = pearson_r(a, b)
    assert pearson_r(2.5 * a + 7.0, b) == pytest.approx(r, abs=1e-12)
    assert pearson_r(-a, b) == pytest.approx(-r, abs=1e-12)


def test_score_or_worst_maps_degenerate_to_minus_one():
    assert score_or_worst(ObjectiveKind.KENDALL, [1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == -1.0
    assert score_or_worst(ObjectiveKind.KENDALL, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
